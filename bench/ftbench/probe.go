package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/ftsim"
)

// runtimeCounters are the Go runtime's and the kernel's cumulative
// counters a window is measured by; reading them does not stop the world.
type runtimeCounters struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64 // seconds, as the Go runtime estimates them
	// procCPU is the user and system CPU time the kernel charged the
	// process, in seconds. Time the hypervisor gave another guest
	// (steal) is not in it.
	procCPU float64
}

func (c *runtimeCounters) add(d runtimeCounters) {
	c.allocBytes += d.allocBytes
	c.gcCycles += d.gcCycles
	c.gcCPU += d.gcCPU
	c.totalCPU += d.totalCPU
	c.procCPU += d.procCPU
}

func (c *runtimeCounters) sub(d runtimeCounters) {
	c.allocBytes -= d.allocBytes
	c.gcCycles -= d.gcCycles
	c.gcCPU -= d.gcCPU
	c.totalCPU -= d.totalCPU
	c.procCPU -= d.procCPU
}

func readRuntime() runtimeCounters {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // fails only for a bad argument
	}
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		procCPU:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
	}
}

// probeLayers times the layers below the campaign engine on fixed inputs,
// each call alone in the process: program builds, assembly, machine
// construction and reset, and single-thread simulation speed per model.
func probeLayers(ctx context.Context, tiny bool) (map[string]float64, error) {
	insts, reps, n, benches := uint64(200_000), 3, 20, ftsim.Benchmarks()
	if tiny {
		insts, reps, n, benches = 2_000, 1, 2, tinyBenchmarks
	}
	m := make(map[string]float64)

	var buildMs []float64
	a0 := readRuntime().allocBytes
	for range reps {
		for _, b := range benches {
			t := time.Now()
			if _, err := ftsim.Benchmark(b); err != nil {
				return nil, err
			}
			buildMs = append(buildMs, ms(time.Since(t)))
		}
	}
	m["workload.build_ms_p50"] = percentile(buildMs, 50)
	m["workload.build_alloc_mb"] = float64(readRuntime().allocBytes-a0) / (1 << 20) / float64(len(buildMs))

	var asmMs []float64
	for range 5 * n {
		t := time.Now()
		if _, err := ftsim.Assemble("loop.s", loopSrc); err != nil {
			return nil, err
		}
		asmMs = append(asmMs, ms(time.Since(t)))
	}
	m["asm.assemble_ms_p50"] = percentile(asmMs, 50)

	gcc, err := ftsim.Benchmark("gcc")
	if err != nil {
		return nil, err
	}
	fpppp, err := ftsim.Benchmark("fpppp")
	if err != nil {
		return nil, err
	}
	ss2, err := ftsim.NewFromConfig(withBudget(ftsim.ModelSS2, insts))
	if err != nil {
		return nil, err
	}
	var loadMs []float64
	for range n {
		t := time.Now()
		if _, err := ss2.Load(gcc); err != nil {
			return nil, err
		}
		loadMs = append(loadMs, ms(time.Since(t)))
	}
	m["cpu.load_ms_p50"] = percentile(loadMs, 50)

	// A one-instruction run on a warm pool is almost all reset.
	var pool ftsim.MachinePool
	one, err := ftsim.NewFromConfig(withBudget(ftsim.ModelSS2, 1))
	if err != nil {
		return nil, err
	}
	var resetMs []float64
	for i := range 5*n + 1 {
		t := time.Now()
		if _, err := one.RunPooled(ctx, &pool, gcc); err != nil {
			return nil, err
		}
		if i > 0 {
			resetMs = append(resetMs, ms(time.Since(t)))
		}
	}
	m["cpu.reset_ms_p50"] = percentile(resetMs, 50)

	short, err := ftsim.NewFromConfig(withBudget(ftsim.ModelSS2, 2_000))
	if err != nil {
		return nil, err
	}
	if _, err := short.RunPooled(ctx, &pool, gcc); err != nil {
		return nil, err
	}
	a0 = readRuntime().allocBytes
	for range n {
		if _, err := short.RunPooled(ctx, &pool, gcc); err != nil {
			return nil, err
		}
	}
	m["cpu.alloc_kb_per_run"] = float64(readRuntime().allocBytes-a0) / 1024 / float64(n)

	for _, c := range []struct {
		key    string
		model  ftsim.Model
		prog   *ftsim.Program
		faults bool
		perCyc bool // also report host ns per simulated cycle
	}{
		{key: "ss1", model: ftsim.ModelSS1, prog: gcc, perCyc: true},
		{key: "static2", model: ftsim.ModelStatic2, prog: gcc},
		{key: "ss2", model: ftsim.ModelSS2, prog: gcc},
		{key: "ss3", model: ftsim.ModelSS3, prog: gcc, perCyc: true},
		{key: "ss2_faults", model: ftsim.ModelSS2, prog: fpppp, faults: true},
		{key: "ss3_faults", model: ftsim.ModelSS3, prog: fpppp, faults: true},
	} {
		cfg := withBudget(c.model, insts)
		if c.faults {
			cfg.Fault = ftsim.FaultConfig{Rate: 1e-2, Seed: 1, Targets: allTargets}
		}
		mach, err := ftsim.NewFromConfig(cfg)
		if err != nil {
			return nil, err
		}
		var rate, nsPerCycle []float64
		for range reps {
			s, err := mach.Load(c.prog)
			if err != nil {
				return nil, err
			}
			t := time.Now()
			st, err := s.Run(ctx)
			d := time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("cpu probe %s: %w", c.key, err)
			}
			rate = append(rate, float64(st.Committed)/d.Seconds()/1e6)
			nsPerCycle = append(nsPerCycle, float64(d.Nanoseconds())/float64(st.Cycles))
		}
		m["cpu.minsts_per_s."+c.key] = percentile(rate, 50)
		if c.perCyc {
			m["cpu.ns_per_sim_cycle."+c.key] = percentile(nsPerCycle, 50)
		}
	}
	return m, nil
}
