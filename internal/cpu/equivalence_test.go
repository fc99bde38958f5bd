package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/workload"
)

// TestScanVsEventEquivalence is the referee for the event-driven
// scheduling kernel: every Table 2 workload, at every redundancy degree
// the paper evaluates, with fault injection enabled, must produce a
// Stats struct deep-equal to the retained scan-based reference
// scheduler's — same cycle count, same rewinds, same injected-fault
// accounting, same outputs. Any divergence in wakeup order, completion
// order or issue selection shows up here as a stats mismatch.
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
				run := func(naive bool) (*Machine, *Stats, error) {
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
					// Each machine builds its own injector: the RNG stream
					// is consumed during simulation, and its consumption
					// order is part of what equivalence checks.
					cfg.Fault = fault.Config{Rate: 1e-3, Seed: 1234, Targets: fault.AllTargets}
					cfg.MaxInsts = 3_000
					cfg.MaxCycles = 2_000_000
					m, err := New(cfg, program)
					if err != nil {
						t.Fatal(err)
					}
					if naive {
						useNaiveScheduler(m)
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
				for r := uint8(1); r < 32; r++ {
					if em.Reg(r) != nm.Reg(r) {
						t.Fatalf("r%d = %#x (event) vs %#x (naive)", r, em.Reg(r), nm.Reg(r))
					}
				}
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
			run := func(naive bool) *Stats {
				cfg := ModelSS1.Config()
				cfg.RUUSize = ruu
				cfg.LSQSize = ruu / 2
				cfg.MaxInsts = 3_000
				cfg.MaxCycles = 2_000_000
				m, err := New(cfg, program)
				if err != nil {
					t.Fatal(err)
				}
				if naive {
					useNaiveScheduler(m)
				}
				st, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			est, nst := run(false), run(true)
			if !reflect.DeepEqual(est, nst) {
				t.Fatalf("stats diverge:\nevent: %+v\nnaive: %+v", est, nst)
			}
		})
	}
}
