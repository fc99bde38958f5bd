package cpu

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/workload"
)

// TestScanVsEventEquivalence is the referee for the event-driven
// scheduling kernel: every Table 2 workload, at every redundancy degree
// the paper evaluates, with fault injection enabled, must produce a
// Stats struct deep-equal to the retained scan-based reference
// scheduler's — same cycle count, same rewinds, same injected-fault
// accounting, same outputs. Any divergence in wakeup order, completion
// order or issue selection shows up here as a stats mismatch, and the
// event kernel's ready set must keep its invariant after every cycle.
//
// Beyond the redundancy degrees, the variants stress the ready set's
// scan: majority election at R=3, the Static-2 half pipeline (issue
// width 4, the most saturated functional-unit pools), an RUU smaller
// than one bitmap word, and a four-word RUU whose head wraps across
// words. Under -short (the race job) these run on three programs only:
// the branchiest (gcc), the most FU-limited (fpppp) and a divide-bound
// one (ammp).
func TestScanVsEventEquivalence(t *testing.T) {
	type variant struct {
		name     string
		r        int
		cosched  bool
		majority bool
		halved   bool // the Static-2 datapath instead of Table 1
		ruu      int  // RUU size override (LSQ = ruu/2); 0 keeps the base
	}
	variants := []variant{
		{name: "R1", r: 1},
		{name: "R2", r: 2},
		{name: "R2-cosched", r: 2, cosched: true},
		{name: "R3", r: 3},
		{name: "R3-majority", r: 3, majority: true},
		{name: "Static2", r: 1, halved: true},
		{name: "R2-RUU16", r: 2, ruu: 16},
		{name: "R2-RUU256", r: 2, ruu: 256},
	}
	const baseVariants = 4 // R1..R3 run on every program, -short or not
	shortPrograms := map[string]bool{"gcc": true, "fpppp": true, "ammp": true}
	for _, p := range workload.Table2() {
		p := p
		program, err := p.Build(1 << 32)
		if err != nil {
			t.Fatalf("%s: build: %v", p.Name, err)
		}
		for i, v := range variants {
			v := v
			if testing.Short() && i >= baseVariants && !shortPrograms[p.Name] {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", p.Name, v.name), func(t *testing.T) {
				cfg := ModelSS1.Config()
				if v.halved {
					cfg = ModelStatic2.Config()
				}
				if v.ruu > 0 {
					cfg.RUUSize, cfg.LSQSize = v.ruu, v.ruu/2
				}
				cfg.R = v.r
				cfg.CoSchedule = v.cosched
				if v.majority {
					cfg.Majority, cfg.MajorityThreshold = true, 2
				}
				cfg.Fault = fault.Config{Rate: 1e-3, Seed: 1234, Targets: fault.AllTargets}
				cfg.MaxInsts = 3_000
				cfg.MaxCycles = 2_000_000
				requireKernelsAgree(t, cfg, program)
			})
		}
	}
}

// TestScanVsEventFaultFree pins the no-fault case too: with injection
// disabled the schedulers must also agree cycle-for-cycle, including on
// the window sizes that stress ring wrap-around.
func TestScanVsEventFaultFree(t *testing.T) {
	p, _ := workload.ByName("gcc")
	program, err := p.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, ruu := range []int{16, 64, 128} {
		ruu := ruu
		t.Run(fmt.Sprintf("RUU%d", ruu), func(t *testing.T) {
			cfg := ModelSS1.Config()
			cfg.RUUSize = ruu
			cfg.LSQSize = ruu / 2
			cfg.MaxInsts = 3_000
			cfg.MaxCycles = 2_000_000
			if _, err := requireKernelsAgree(t, cfg, program); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// requireKernelsAgree runs program under cfg on the event kernel and on
// the scan reference, and fails t unless both return the same error,
// deep-equal Stats, the same registers and the same committed memory.
// The event machine also checks its ready set's invariant (see
// readySet.check) after every cycle. Each run builds its own machine,
// and with it its own fault injector: the RNG stream is consumed during
// simulation, and its consumption order is part of what is compared.
// It returns the event run's Stats and error.
func requireKernelsAgree(t *testing.T, cfg Config, program *prog.Program) (*Stats, error) {
	t.Helper()
	run := func(naive bool) (*Machine, *Stats, error) {
		m, err := New(cfg, program)
		if err != nil {
			t.Fatal(err)
		}
		if naive {
			useNaiveScheduler(m)
		} else {
			m.SetHooks(Hooks{ObserveEvery: 1, Observe: func(st *Stats) {
				if err := m.ready.check(); err != nil {
					t.Fatalf("cycle %d: %v", st.Cycles, err)
				}
			}})
		}
		st, err := m.Run()
		return m, st, err
	}
	em, est, eerr := run(false)
	nm, nst, nerr := run(true)
	if (eerr == nil) != (nerr == nil) || (eerr != nil && eerr.Error() != nerr.Error()) {
		t.Fatalf("error divergence: event=%v naive=%v", eerr, nerr)
	}
	if !reflect.DeepEqual(est, nst) {
		t.Fatalf("stats diverge:\nevent: %+v\nnaive: %+v", est, nst)
	}
	if !mem.Equal(em.Memory(), nm.Memory()) {
		addr, _ := mem.FirstDiff(em.Memory(), nm.Memory())
		t.Fatalf("committed memory diverges at %#x", addr)
	}
	for r := uint8(1); r < isa.NumRegs; r++ {
		if em.Reg(r) != nm.Reg(r) {
			t.Fatalf("r%d = %#x (event) vs %#x (naive)", r, em.Reg(r), nm.Reg(r))
		}
	}
	return est, eerr
}

// FuzzKernelEquivalence is the coverage-guided form of
// TestScanVsEventEquivalence. The first eight input bytes seed
// randomProgram; the rest choose a legal machine around it: R from 1
// to 3, majority election and its threshold, co-scheduling, an RUU of 8
// to 256 entries (power of two or not), an LSQ, fetch, dispatch, issue
// and commit widths of at least R, one to four units per pool, and a
// fault rate of 0, 1e-3 or 1e-2 over a subset of the targets. The two
// kernels must agree as requireKernelsAgree defines it. The seed corpus
// (testdata/fuzz/FuzzKernelEquivalence) names the machine each seed
// decodes to.
func FuzzKernelEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, program := fuzzMachine(data)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("generated an invalid config: %v", err)
		}
		requireKernelsAgree(t, cfg, program)
	})
}

// fuzzMachine decodes FuzzKernelEquivalence's input into a config and
// a program. Bytes past the end of the input read as zero.
func fuzzMachine(data []byte) (Config, *prog.Program) {
	var seed [8]byte
	n := copy(seed[:], data)
	knobs := data[n:]
	next := func() int {
		if len(knobs) == 0 {
			return 0
		}
		b := knobs[0]
		knobs = knobs[1:]
		return int(b)
	}
	cfg := ModelSS1.Config()
	r := 1 + next()%3
	cfg.R = r
	if r == 3 && next()&1 == 1 {
		cfg.Majority, cfg.MajorityThreshold = true, 2+next()%2
	}
	cfg.CoSchedule = next()&1 == 1
	cfg.RUUSize = 8 + (next()<<8|next())%249
	cfg.LSQSize = 1 + next()%cfg.RUUSize
	cfg.FetchWidth = 1 + next()%8
	cfg.FetchQueue = cfg.FetchWidth + next()%9
	cfg.DispatchWidth = r + next()%(9-r)
	cfg.IssueWidth = r + next()%(9-r)
	cfg.CommitWidth = r + next()%(9-r)
	cfg.RedirectPenalty = next() % 4
	cfg.IntALU = 1 + next()%4
	cfg.IntMult = 1 + next()%4
	cfg.FPAdd = 1 + next()%4
	cfg.FPMult = 1 + next()%4
	cfg.MemPorts = 1 + next()%4
	if rate := [...]float64{0, 1e-3, 1e-2}[next()%3]; rate > 0 {
		targets := next()
		cfg.Fault = fault.Config{Rate: rate, Seed: int64(next()) + 1}
		for _, tg := range fault.AllTargets {
			if targets>>tg&1 == 1 {
				cfg.Fault.Targets = append(cfg.Fault.Targets, tg)
			}
		}
		if len(cfg.Fault.Targets) == 0 {
			cfg.Fault.Targets = []fault.Target{fault.TargetResult}
		}
	}
	cfg.MaxInsts = 4_000
	cfg.MaxCycles = 60_000
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
	return cfg, randomProgram(rng, 20+next()%100)
}
