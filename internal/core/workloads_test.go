package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/workload"
)

// TestAllWorkloadsOracleClean runs every Table 2 benchmark on SS-2 with
// the in-order oracle enabled: the committed stream must match the
// functional semantics instruction for instruction, with and without
// fault injection. This is the broadest end-to-end invariant in the
// suite — it exercises renaming, the LSQ, FP pipelines, divides, branch
// rewinds and the checker on all eleven instruction mixes.
func TestAllWorkloadsOracleClean(t *testing.T) {
	for _, p := range workload.Table2() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			program, err := p.Build(1 << 32)
			if err != nil {
				t.Fatal(err)
			}
			for _, faulty := range []bool{false, true} {
				cfg := SS2()
				cfg.Oracle = true
				cfg.MaxInsts = 8_000
				cfg.MaxCycles = 4_000_000
				if faulty {
					cfg.Fault = fault.Config{Rate: 5e-4, Seed: 21, Targets: fault.AllTargets}
				}
				st, err := Run(program, cfg)
				if err != nil {
					t.Fatalf("faulty=%v: %v", faulty, err)
				}
				if st.EscapedFaults != 0 {
					t.Fatalf("faulty=%v: oracle divergence: %s", faulty, st.Summary())
				}
				if !faulty && st.FaultsDetected != 0 {
					t.Fatalf("spurious detections: %s", st.Summary())
				}
			}
		})
	}
}

// TestStatic2OracleClean: the halved pipeline is a different machine
// shape (narrow widths, single memory port); run the memory-heavy and
// FP-heavy benchmarks through it with the oracle.
func TestStatic2OracleClean(t *testing.T) {
	for _, name := range []string{"gcc", "fpppp", "swim"} {
		p, _ := workload.ByName(name)
		program, err := p.Build(1 << 32)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Static2()
		cfg.Oracle = true
		cfg.MaxInsts = 8_000
		cfg.MaxCycles = 4_000_000
		st, err := Run(program, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.EscapedFaults != 0 {
			t.Fatalf("%s: oracle divergence: %s", name, st.Summary())
		}
	}
}

// TestStallAccounting: a machine starved of window space reports
// dispatch stalls; one starved of LSQ space reports LSQ stalls.
func TestStallAccounting(t *testing.T) {
	p, _ := workload.ByName("swim") // long FP latencies + memory traffic
	program, err := p.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}

	tiny := SS1()
	tiny.RUUSize = 8
	tiny.LSQSize = 8
	tiny.MaxInsts = 5_000
	tiny.MaxCycles = 2_000_000
	st, err := Run(program, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if st.DispatchRUUFull == 0 {
		t.Errorf("8-entry window reported no RUU-full stalls: %s", st.Summary())
	}

	tinyLSQ := SS1()
	tinyLSQ.LSQSize = 2
	tinyLSQ.MaxInsts = 5_000
	tinyLSQ.MaxCycles = 2_000_000
	st2, err := Run(program, tinyLSQ)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DispatchLSQFull == 0 {
		t.Errorf("2-entry LSQ reported no LSQ-full stalls: %s", st2.Summary())
	}
	// Starved configurations are slower.
	fullCfg := SS1()
	fullCfg.MaxInsts, fullCfg.MaxCycles = 5_000, 2_000_000
	full, err := Run(program, fullCfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC() >= full.IPC() {
		t.Errorf("8-entry window IPC %.3f >= full machine %.3f", st.IPC(), full.IPC())
	}
}
