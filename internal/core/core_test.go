package core

import (
	"errors"
	"testing"

	"repro/ftsim"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/prog"
)

// mixedProgram builds a loop exercising ALU ops, multiplies, memory
// traffic, data-dependent branches and calls — enough surface for fault
// injection to hit every instruction class.
func mixedProgram(iters int64) *prog.Program {
	b := prog.NewBuilder("mixed")
	buf := b.Alloc(256)
	b.Li(1, iters)
	b.Li(2, 0xACE1) // LCG state
	b.Li(9, int64(buf))
	b.Li(10, 0) // checksum
	b.Label("loop")
	b.Li(3, 1103515245)
	b.R(isa.OpMul, 2, 2, 3)
	b.I(isa.OpAddi, 2, 2, 12345)
	b.I(isa.OpSrli, 4, 2, 13)
	b.I(isa.OpAndi, 4, 4, 31)  // index 0..31
	b.I(isa.OpSlli, 5, 4, 3)   // byte offset
	b.R(isa.OpAdd, 5, 5, 9)    // address
	b.Store(isa.OpSd, 2, 5, 0) // store state
	b.Load(isa.OpLd, 6, 5, 0)  // reload (often forwarded)
	b.R(isa.OpXor, 10, 10, 6)  // fold into checksum
	b.I(isa.OpAndi, 7, 2, 1)
	b.Branch(isa.OpBeq, 7, 0, "even")
	b.I(isa.OpAddi, 10, 10, 7)
	b.Label("even")
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Out(10)
	b.Halt()
	return b.MustBuild()
}

// reference runs the program on the functional simulator.
func reference(t *testing.T, p *prog.Program) []uint64 {
	t.Helper()
	m := funcsim.New(p)
	if err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	return m.Output
}

func runCfg(t *testing.T, p *prog.Program, c cpu.Config) *cpu.Stats {
	t.Helper()
	c.Oracle = true
	if c.MaxCycles == 0 {
		c.MaxCycles = 20_000_000
	}
	st, err := Run(p, c)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFaultFreeModesAgree(t *testing.T) {
	p := mixedProgram(400)
	want := reference(t, p)
	for _, tc := range []struct {
		name string
		cfg  cpu.Config
	}{
		{"SS-1", SS1()},
		{"SS-2", SS2()},
		{"SS-3", SS3()},
		{"SS-3-rewind", SS3Rewind()},
		{"Static-2", Static2()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := runCfg(t, p, tc.cfg)
			if !st.Halted {
				t.Fatalf("did not halt: %s", st.Summary())
			}
			if st.EscapedFaults != 0 {
				t.Fatalf("oracle divergence: %s", st.Summary())
			}
			if len(st.Output) != len(want) || st.Output[0] != want[0] {
				t.Fatalf("output %v, want %v", st.Output, want)
			}
			if st.FaultsDetected != 0 || st.FaultRewinds != 0 {
				t.Errorf("spurious detections without injection: %s", st.Summary())
			}
		})
	}
}

func TestRedundancyCostsThroughput(t *testing.T) {
	p := mixedProgram(600)
	ss1 := runCfg(t, p, SS1())
	ss2 := runCfg(t, p, SS2())
	ss3 := runCfg(t, p, SS3())
	if ss2.IPC() >= ss1.IPC() {
		t.Errorf("SS-2 IPC %.3f >= SS-1 IPC %.3f", ss2.IPC(), ss1.IPC())
	}
	if ss3.IPC() >= ss2.IPC() {
		t.Errorf("SS-3 IPC %.3f >= SS-2 IPC %.3f", ss3.IPC(), ss2.IPC())
	}
	// The paper's Section 4 bound: IPC_R >= IPC_1/R (redundant threads
	// reuse idle capacity, never less than a 1/R share).
	if ss2.IPC() < ss1.IPC()/2*0.9 {
		t.Errorf("SS-2 IPC %.3f below IPC_1/2 = %.3f", ss2.IPC(), ss1.IPC()/2)
	}
}

// TestFaultInjectionSS2 is the core claim: with 2-way redundancy, every
// injected fault is either masked (no architectural effect) or detected
// and recovered; committed state never diverges from the oracle.
func TestFaultInjectionSS2(t *testing.T) {
	p := mixedProgram(400)
	want := reference(t, p)
	for _, rate := range []float64{1e-4, 1e-3, 5e-3} {
		cfg := SS2()
		cfg.Fault = fault.Config{Rate: rate, Seed: 42, Targets: fault.AllTargets}
		st := runCfg(t, p, cfg)
		if !st.Halted {
			t.Fatalf("rate %g: did not halt: %s", rate, st.Summary())
		}
		if st.EscapedFaults != 0 {
			t.Fatalf("rate %g: %d faults escaped detection: %s", rate, st.EscapedFaults, st.Summary())
		}
		if st.Output[0] != want[0] {
			t.Fatalf("rate %g: corrupted output %#x, want %#x", rate, st.Output[0], want[0])
		}
		if st.Fault.Injected == 0 {
			t.Fatalf("rate %g: no faults injected", rate)
		}
		if rate >= 1e-3 && st.FaultsDetected == 0 {
			t.Errorf("rate %g: injected %d faults but detected none", rate, st.Fault.Injected)
		}
	}
}

// TestFaultInjectionSS3Majority: with majority election, most single-copy
// faults commit without a rewind.
func TestFaultInjectionSS3Majority(t *testing.T) {
	p := mixedProgram(400)
	want := reference(t, p)
	cfg := SS3()
	cfg.Fault = fault.Config{Rate: 2e-3, Seed: 7, Targets: fault.AllTargets}
	st := runCfg(t, p, cfg)
	if st.EscapedFaults != 0 {
		t.Fatalf("escapes under majority election: %s", st.Summary())
	}
	if st.Output[0] != want[0] {
		t.Fatalf("output %#x, want %#x", st.Output[0], want[0])
	}
	if st.MajorityCommits == 0 {
		t.Error("no majority commits at this rate")
	}
	// Rewinds should be much rarer than detections: only multi-copy
	// corruption of one group forces a rewind.
	if st.FaultRewinds > st.FaultsDetected/2 {
		t.Errorf("majority design rewound %d/%d detections", st.FaultRewinds, st.FaultsDetected)
	}

	// The rewind-only R=3 design recovers everything too, but by rewinding.
	cfgR := SS3Rewind()
	cfgR.Fault = fault.Config{Rate: 2e-3, Seed: 7, Targets: fault.AllTargets}
	stR := runCfg(t, p, cfgR)
	if stR.EscapedFaults != 0 || stR.Output[0] != want[0] {
		t.Fatalf("SS-3-rewind corrupted state: %s", stR.Summary())
	}
	if stR.MajorityCommits != 0 {
		t.Error("rewind-only design reported majority commits")
	}
}

// TestUnprotectedBaselineEscapes: SS-1 has no detection, so injected
// faults corrupt architectural state (observed via the oracle).
func TestUnprotectedBaselineEscapes(t *testing.T) {
	p := mixedProgram(400)
	cfg := SS1()
	cfg.Fault = fault.Config{Rate: 5e-3, Seed: 11}
	// A corrupted branch can strand execution on a nop sled, so bound the
	// run; the escape is observed long before the limit.
	cfg.MaxCycles = 300_000
	st := runCfg(t, p, cfg)
	if st.EscapedFaults == 0 {
		t.Errorf("SS-1 absorbed %d faults without architectural damage", st.Fault.Injected)
	}
}

// TestPerTargetDetection injects each fault class alone and requires
// detection plus full recovery.
func TestPerTargetDetection(t *testing.T) {
	p := mixedProgram(300)
	want := reference(t, p)
	for _, tgt := range fault.AllTargets {
		t.Run(tgt.String(), func(t *testing.T) {
			cfg := SS2()
			cfg.Fault = fault.Config{Rate: 2e-3, Seed: 5, Targets: []fault.Target{tgt}}
			st := runCfg(t, p, cfg)
			if st.EscapedFaults != 0 {
				t.Fatalf("target %v escaped: %s", tgt, st.Summary())
			}
			if st.Output[0] != want[0] {
				t.Fatalf("target %v corrupted output", tgt)
			}
			if st.Fault.Injected > 3 && st.FaultsDetected == 0 && tgt != fault.TargetBranch {
				t.Errorf("target %v: injected %d, detected none", tgt, st.Fault.Injected)
			}
		})
	}
}

// TestRecoveryPenaltyMagnitude: the paper reports rewind recovery costs
// on the order of tens of cycles (about 30 for fpppp).
func TestRecoveryPenaltyMagnitude(t *testing.T) {
	p := mixedProgram(2000)
	cfg := SS2()
	cfg.Fault = fault.Config{Rate: 1e-3, Seed: 3, Targets: fault.AllTargets}
	st := runCfg(t, p, cfg)
	if st.FaultRewinds < 5 {
		t.Skipf("only %d rewinds observed", st.FaultRewinds)
	}
	pen := st.AvgRecoveryPenalty()
	if pen < 3 || pen > 200 {
		t.Errorf("average recovery penalty %.1f cycles, expected tens", pen)
	}
}

func TestCoScheduleStillCorrect(t *testing.T) {
	p := mixedProgram(300)
	want := reference(t, p)
	cfg := SS2()
	cfg.CoSchedule = true
	st := runCfg(t, p, cfg)
	if st.Output[0] != want[0] || st.EscapedFaults != 0 {
		t.Fatalf("co-scheduled run corrupted: %s", st.Summary())
	}
}

func TestMajorityThresholdFour(t *testing.T) {
	// R=4 with a strict threshold of 4 behaves like rewind-on-any-
	// mismatch; with threshold 3 it can elect.
	p := mixedProgram(200)
	want := reference(t, p)
	cfg := SS1()
	cfg.R, cfg.Majority, cfg.MajorityThreshold = 4, true, 3
	cfg.Fault = fault.Config{Rate: 1e-3, Seed: 9, Targets: fault.AllTargets}
	st := runCfg(t, p, cfg)
	if st.EscapedFaults != 0 || st.Output[0] != want[0] {
		t.Fatalf("R=4 corrupted: %s", st.Summary())
	}
}

// TestPresetNames checks the facade's published machine models.
func TestPresetNames(t *testing.T) {
	cases := map[string]ftsim.Config{
		"SS-1": ftsim.ModelSS1.Config(), "SS-2": ftsim.ModelSS2.Config(),
		"SS-3": ftsim.ModelSS3.Config(), "Static-2": ftsim.ModelStatic2.Config(),
	}
	for want, cfg := range cases {
		if cfg.Name != want {
			t.Errorf("preset name %q, want %q", cfg.Name, want)
		}
	}
	if ftsim.ModelSS2.Config().R != 2 || ftsim.ModelSS3.Config().R != 3 || !ftsim.ModelSS3.Config().Majority {
		t.Error("preset redundancy misconfigured")
	}
	if st2 := ftsim.ModelStatic2.Config(); st2.Pipeline.RUUSize != 64 || st2.Pipeline.FPMult != 1 {
		t.Error("Static-2 resources misconfigured")
	}
}

// TestPersistentFaultMasking reproduces the Section 2.2 discussion: a
// hard stuck-bit fault in a shared functional unit corrupts redundant
// copies identically, so plain replication cannot see it — but rotating
// the copies' operands (the cited Patel & Fung transform) makes the
// corruption land on different result bits and the commit check exposes
// it.
func TestPersistentFaultMasking(t *testing.T) {
	// A XOR-heavy loop so the damaged logic slice is exercised densely.
	b := prog.NewBuilder("stuck")
	b.Li(1, 5000)
	b.Li(2, 0x0123_4567_89AB_CDEF)
	b.Li(3, 0x1111_2222_3333_4444)
	b.Label("loop")
	b.R(isa.OpXor, 2, 2, 3)
	b.R(isa.OpXor, 3, 3, 2)
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Out(2)
	b.Halt()
	p := b.MustBuild()

	run := func(transform bool) *cpu.Stats {
		cfg := SS2()
		cfg.IntALU = 1 // force both copies through the damaged unit
		cfg.Persistent = &fault.Persistent{Pool: isa.PoolIntALU, Unit: 0, Bit: 17}
		cfg.TransformOperands = transform
		cfg.Oracle = true
		cfg.MaxCycles = 400_000
		st, err := Run(p, cfg)
		// A permanent fault under detect-and-rewind livelocks at the
		// first affected instruction: rewinding re-executes into the
		// same damage. The simulator reports that as a deadlock, which
		// is the honest outcome — detection worked, recovery cannot.
		if err != nil && !errors.Is(err, cpu.ErrDeadlock) {
			t.Fatal(err)
		}
		return st
	}

	// Without the transform the two copies corrupt identically: the
	// cross-check passes and wrong values commit (silent corruption).
	plain := run(false)
	if plain.EscapedFaults == 0 {
		t.Errorf("identical persistent corruption was somehow detected: %s", plain.Summary())
	}

	// With rotated operands the corruption is exposed at commit. The
	// fault is permanent, so recovery cannot make progress past the first
	// affected instruction — but nothing corrupt ever commits.
	hardened := run(true)
	if hardened.FaultsDetected == 0 {
		t.Errorf("transform failed to expose the stuck bit: %s", hardened.Summary())
	}
	if hardened.EscapedFaults != 0 {
		t.Errorf("corrupt state committed despite detection: %s", hardened.Summary())
	}
}

// TestPersistentFaultCleanUnit: a stuck bit in a unit the copies avoid
// (co-scheduling on a 4-ALU machine) is survivable for R=2 because the
// damaged copy always disagrees with the clean one and rewind re-executes
// — the same detect-and-retry loop, but with forward progress whenever
// the copies land on clean units.
func TestPersistentTransformCleanRun(t *testing.T) {
	p := mixedProgram(100)
	want := reference(t, p)
	// No persistent fault: the transform must be semantically invisible.
	cfg := SS2()
	cfg.TransformOperands = true
	st := runCfg(t, p, cfg)
	if st.EscapedFaults != 0 || st.FaultsDetected != 0 {
		t.Fatalf("transform alone caused detections: %s", st.Summary())
	}
	if st.Output[0] != want[0] {
		t.Fatalf("transform changed results: %#x vs %#x", st.Output[0], want[0])
	}
}
