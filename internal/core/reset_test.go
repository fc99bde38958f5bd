package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/testenv"
	"repro/internal/workload"
)

// resetCases are the (name, config) points the reset-equivalence suite
// sweeps: every machine model, fault injection on and off, the oracle
// co-simulator, a recovery penalty, and a window geometry that differs
// from the baseline (so reuse across the cases exercises both the
// slab-reuse and the slab-rebuild paths of Machine.Reset).
func resetCases() []struct {
	name string
	cfg  cpu.Config
} {
	withFault := func(c cpu.Config, rate float64, seed int64) cpu.Config {
		c.Fault = fault.Config{Rate: rate, Seed: seed, Targets: fault.AllTargets}
		return c
	}
	bigWindow := SS2()
	bigWindow.RUUSize = 256
	bigWindow.LSQSize = 128
	oracle := SS2()
	oracle.Oracle = true
	penalty := SS3Rewind()
	penalty.RecoveryPenalty = 500
	return []struct {
		name string
		cfg  cpu.Config
	}{
		{"SS1", SS1()},
		{"SS2", SS2()},
		{"SS2/fault", withFault(SS2(), 1e-4, 7)},
		{"SS3/fault", withFault(SS3(), 1e-4, 11)},
		{"SS3rewind/penalty/fault", withFault(penalty, 1e-4, 13)},
		{"Static2", Static2()},
		{"SS2/RUU256", bigWindow},
		{"SS2/oracle/fault", withFault(oracle, 1e-4, 17)},
	}
}

// TestRebuildMatchesFresh is the tentpole referee: a machine recycled
// through Machine.Reset must produce Stats deeply equal to a fresh
// cpu.New, no matter what the machine ran before — a different
// model, a different program, a different window geometry, or a run
// that was cancelled mid-flight and abandoned with in-flight state.
func TestRebuildMatchesFresh(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	swim, _ := workload.ByName("swim")
	progA, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	progB, err := swim.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}

	const insts = 8_000
	limit := func(c cpu.Config) cpu.Config {
		c.MaxInsts = insts
		c.MaxCycles = insts * 100
		return c
	}

	cases := resetCases()
	// dirty returns a machine left in a deliberately nasty state: it
	// just ran (or was interrupted running) some other configuration.
	dirty := make([]func(t *testing.T) *cpu.Machine, 0, 3)
	dirty = append(dirty,
		func(t *testing.T) *cpu.Machine {
			// Completed run of a different model on a different program.
			m, err := cpu.New(limit(SS3()), progB)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			return m
		},
		func(t *testing.T) *cpu.Machine {
			// Cancelled mid-run: RUU/LSQ, waitlists, calendar and fetch
			// queue are all abandoned with live entries.
			m, err := cpu.New(limit(SS2()), progA)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := m.RunContext(ctx); err != context.Canceled {
				t.Fatalf("cancelled run returned %v", err)
			}
			return m
		},
		func(t *testing.T) *cpu.Machine {
			// Different window geometry + fault injector state.
			c := limit(SS2())
			c.RUUSize = 256
			c.LSQSize = 128
			c.Fault = fault.Config{Rate: 1e-3, Seed: 99, Targets: fault.AllTargets}
			m, err := cpu.New(c, progB)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			return m
		})

	for _, tc := range cases {
		cfg := limit(tc.cfg)
		t.Run(tc.name, func(t *testing.T) {
			freshM, err := cpu.New(cfg, progA)
			if err != nil {
				t.Fatal(err)
			}
			want, err := freshM.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for i, mk := range dirty {
				t.Run(fmt.Sprintf("dirty%d", i), func(t *testing.T) {
					m := mk(t)
					if err := m.Reset(cfg, progA); err != nil {
						t.Fatal(err)
					}
					got, err := m.RunContext(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("recycled machine diverges from fresh build\nfresh:    %+v\nrecycled: %+v", want, got)
					}
				})
			}
		})
	}
}

// TestRebuildTwiceMatchesFresh recycles the same machine through every
// case back to back — the pool's actual usage pattern — and checks each
// run against its fresh reference.
func TestRebuildTwiceMatchesFresh(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	const insts = 6_000
	m := new(cpu.Machine)
	for _, tc := range resetCases() {
		cfg := tc.cfg
		cfg.MaxInsts = insts
		cfg.MaxCycles = insts * 100
		want, err := Run(program, cfg)
		if err != nil {
			t.Fatalf("%s: fresh: %v", tc.name, err)
		}
		if err := m.Reset(cfg, program); err != nil {
			t.Fatalf("%s: reset: %v", tc.name, err)
		}
		got, err := m.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s: recycled run: %v", tc.name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: recycled machine diverges\nfresh:    %+v\nrecycled: %+v", tc.name, want, got)
		}
	}
}

// TestRebuildInvalidConfigLeavesMachineUsable: Reset with a broken
// configuration must fail without corrupting the machine, which stays
// recyclable (this is what lets the pool keep a machine after a
// rejected checkout).
func TestRebuildInvalidConfigLeavesMachineUsable(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SS2()
	cfg.MaxInsts = 4_000
	cfg.MaxCycles = 400_000
	want, err := Run(program, cfg)
	if err != nil {
		t.Fatal(err)
	}

	m, err := cpu.New(cfg, program)
	if err != nil {
		t.Fatal(err)
	}
	broken := cfg
	broken.RUUSize = 0
	if err := m.Reset(broken, program); err == nil {
		t.Fatal("Reset accepted an invalid config")
	}
	if err := m.Reset(cfg, program); err != nil {
		t.Fatal(err)
	}
	got, err := m.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("machine unusable after rejected Reset")
	}
}

// TestSteadyStateAllocBudget pins the tentpole's allocation win: once a
// machine is warm, a full rebuild-and-run cycle of the pipeline hot
// loop must stay under a hard allocation ceiling. Building a machine
// per run spends ~17k allocations; a warm reset spends none, because
// the machine keeps its slabs, injector and majority-checker scratch.
// The ceiling has headroom over the measured value but fails loudly if
// per-trial allocation regresses toward the old per-run construction
// cost.
func TestSteadyStateAllocBudget(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	const insts = 5_000
	for _, tc := range []struct {
		name    string
		cfg     func() cpu.Config
		ceiling float64
	}{
		{"SS1", SS1, 100},
		{"SS2/fault", func() cpu.Config {
			c := SS2()
			c.Fault = fault.Config{Rate: 1e-4, Seed: 3, Targets: fault.AllTargets}
			return c
		}, 100},
		{"SS3/fault", func() cpu.Config {
			c := SS3() // majority election: exercises the checker scratch
			c.Fault = fault.Config{Rate: 1e-4, Seed: 5, Targets: fault.AllTargets}
			return c
		}, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.MaxInsts = insts
			cfg.MaxCycles = insts * 100
			m, err := cpu.New(cfg, program)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if err := m.Reset(cfg, program); err != nil {
					t.Fatal(err)
				}
				if _, err := m.RunContext(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the slabs past their growth tail
			got := testing.AllocsPerRun(5, run)
			t.Logf("%s: %.1f allocs per warm rebuild+run", tc.name, got)
			if got > tc.ceiling {
				t.Errorf("warm rebuild+run allocates %.1f/run, budget %.0f", got, tc.ceiling)
			}
		})
	}
}

// TestWarmLoadCopiesNoData: loading the largest Table 2 data segment
// (swim's) into a warm machine maps the program's image instead of
// copying it. The machine's data pages are the program's own Data,
// the reset allocates nothing, and the oracle's clone of the loaded
// memory allocates far less than the segment.
func TestWarmLoadCopiesNoData(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	swim, _ := workload.ByName("swim")
	program, err := swim.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SS2()
	cfg.MaxInsts = 2_000
	m, err := cpu.New(cfg, program)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	reset := func() {
		if err := m.Reset(cfg, program); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(5, reset); got != 0 {
		t.Errorf("warm reset allocates %.1f/run, want 0", got)
	}
	last := len(program.Data) - len(program.Data)%mem.PageSize - mem.PageSize
	if &m.Memory().PageData((prog.DataBase + uint64(last)) >> mem.PageShift)[0] != &program.Data[last] {
		t.Error("the loaded data segment is a copy of the program's Data")
	}

	cfg.Oracle = true
	reset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reset()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(program.Data)/8); got > limit {
		t.Errorf("warm reset with the oracle allocates %d bytes; data segment is %d", got, len(program.Data))
	}
}
