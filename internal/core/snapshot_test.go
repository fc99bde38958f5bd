package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/snap"
	"repro/internal/workload"
)

// interruptRun runs m and cancels the run at the first observation at
// or after the given cycle. The cancellation lands on the run loop's
// next poll, so the interrupted machine state is a deterministic
// function of (config, program, cycle).
func interruptRun(t *testing.T, m *cpu.Machine, atCycle uint64) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.SetHooks(cpu.Hooks{ObserveEvery: 256, Observe: func(s *cpu.Stats) {
		if s.Cycles >= atCycle {
			cancel()
		}
	}})
	_, err := m.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v (run too short to interrupt?)", err)
	}
}

// assertSameArchState compares the committed architectural state of
// two machines: registers, memory image, and halt status.
func assertSameArchState(t *testing.T, a, b *cpu.Machine) {
	t.Helper()
	for r := uint8(0); r < isa.NumRegs; r++ {
		if a.Reg(r) != b.Reg(r) {
			t.Errorf("register %s differs: %#x vs %#x", isa.RegName(r), a.Reg(r), b.Reg(r))
		}
	}
	if !mem.Equal(a.Memory(), b.Memory()) {
		addr, _ := mem.FirstDiff(a.Memory(), b.Memory())
		t.Errorf("memory differs, first at %#x", addr)
	}
	if a.Halted() != b.Halted() {
		t.Errorf("halted %v vs %v", a.Halted(), b.Halted())
	}
}

// TestSnapshotRestoreContinuesIdentically is the tentpole referee: a
// machine interrupted mid-run, snapshotted, and restored onto a fresh
// machine must continue byte-identically to the donor machine
// continuing in place — same Stats down to the last counter, same
// architectural state. The sweep reuses the reset-equivalence cases:
// every model, fault injection, the oracle, a recovery penalty, and a
// non-baseline window geometry.
func TestSnapshotRestoreContinuesIdentically(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	const insts = 8_000
	for _, tc := range resetCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MaxInsts = insts
			cfg.MaxCycles = insts * 100

			donor, err := cpu.New(cfg, program)
			if err != nil {
				t.Fatal(err)
			}
			interruptRun(t, donor, 2_000)
			blob := donor.Snapshot()

			restored := new(cpu.Machine)
			if err := restored.Restore(cfg, blob); err != nil {
				t.Fatal(err)
			}

			donorStats, err := donor.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			restoredStats, err := restored.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(donorStats, restoredStats) {
				t.Errorf("restored run diverges from donor continuation\ndonor:    %+v\nrestored: %+v",
					donorStats, restoredStats)
			}
			assertSameArchState(t, donor, restored)
		})
	}
}

// TestSnapshotTable2Sweep covers the satellite matrix: every Table 2
// benchmark × R ∈ {1,2,3} × fault injection. Donor continuation and
// restore must agree byte-identically, and (because detection and
// recovery keep the committed state clean — EscapedFaults stays 0 for
// R >= 2) the architectural results must equal an uninterrupted run's.
func TestSnapshotTable2Sweep(t *testing.T) {
	models := []struct {
		r   int
		cfg func() cpu.Config
	}{
		{1, SS1},
		{2, SS2},
		{3, SS3},
	}
	benches := workload.Table2()
	if testing.Short() {
		benches = benches[:3]
	}
	for _, wl := range benches {
		program, err := wl.Build(1 << 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models {
			t.Run(fmt.Sprintf("%s/R%d", wl.Name, m.r), func(t *testing.T) {
				cfg := m.cfg()
				cfg.MaxInsts = 5_000
				cfg.MaxCycles = 2_000_000
				if m.r > 1 {
					cfg.Fault = fault.Config{Rate: 5e-4, Seed: int64(31 + m.r), Targets: fault.AllTargets}
				}

				donor, err := cpu.New(cfg, program)
				if err != nil {
					t.Fatal(err)
				}
				interruptRun(t, donor, 1_000)
				restored := new(cpu.Machine)
				if err := restored.Restore(cfg, donor.Snapshot()); err != nil {
					t.Fatal(err)
				}
				donorStats, err := donor.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				restoredStats, err := restored.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(donorStats, restoredStats) {
					t.Fatalf("restored run diverges from donor continuation\ndonor:    %+v\nrestored: %+v",
						donorStats, restoredStats)
				}
				assertSameArchState(t, donor, restored)

				// The snapshot quiesce perturbs microarchitectural timing
				// (it squashes in-flight work, like the paper's recovery
				// does), so cycle counts legitimately differ from an
				// uninterrupted run — but the committed results must not.
				uncut, err := cpu.New(cfg, program)
				if err != nil {
					t.Fatal(err)
				}
				uncutStats, err := uncut.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if donorStats.EscapedFaults == 0 && uncutStats.EscapedFaults == 0 {
					if !reflect.DeepEqual(donorStats.Output, uncutStats.Output) ||
						donorStats.Halted != uncutStats.Halted ||
						donorStats.Committed != uncutStats.Committed {
						t.Errorf("interrupted run's architectural results differ from uninterrupted:\ninterrupted:   committed=%d halted=%v out=%v\nuninterrupted: committed=%d halted=%v out=%v",
							donorStats.Committed, donorStats.Halted, donorStats.Output,
							uncutStats.Committed, uncutStats.Halted, uncutStats.Output)
					}
					assertSameArchState(t, donor, uncut)
				}
			})
		}
	}
}

// TestSnapshotOfFreshMachine: snapshotting a machine that has not run
// a cycle and restoring it must reproduce a full run exactly.
func TestSnapshotOfFreshMachine(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SS2()
	cfg.Fault = fault.Config{Rate: 1e-4, Seed: 7, Targets: fault.AllTargets}
	cfg.MaxInsts = 4_000
	cfg.MaxCycles = 400_000

	donor, err := cpu.New(cfg, program)
	if err != nil {
		t.Fatal(err)
	}
	restored := new(cpu.Machine)
	if err := restored.Restore(cfg, donor.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want, err := donor.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("fresh-snapshot restore diverges:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestRestoreIntoRecycledMachine: Restore must fully overwrite a
// machine that previously ran something else entirely, exactly like
// Reset does.
func TestRestoreIntoRecycledMachine(t *testing.T) {
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
	cfg := SS2()
	cfg.Fault = fault.Config{Rate: 1e-4, Seed: 5, Targets: fault.AllTargets}
	cfg.MaxInsts = 6_000
	cfg.MaxCycles = 600_000

	donor, err := cpu.New(cfg, progA)
	if err != nil {
		t.Fatal(err)
	}
	interruptRun(t, donor, 1_500)
	blob := donor.Snapshot()

	// The recycled victim: a different model, different program, run to
	// completion.
	other := SS3()
	other.MaxInsts = 3_000
	other.MaxCycles = 300_000
	victim, err := cpu.New(other, progB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	if err := victim.Restore(cfg, blob); err != nil {
		t.Fatal(err)
	}
	donorStats, err := donor.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	restoredStats, err := victim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(donorStats, restoredStats) {
		t.Errorf("restore into recycled machine diverges\ndonor:    %+v\nrecycled: %+v", donorStats, restoredStats)
	}
}

// TestRestoreUnderLargerBudget: run limits are excluded from the
// fingerprint, so a workload snapshotted under one instruction budget
// resumes under a larger one — the checkpoint/resume use case for
// long workloads.
func TestRestoreUnderLargerBudget(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	small := SS2()
	small.MaxInsts = 2_000
	small.MaxCycles = 200_000
	donor, err := cpu.New(small, program)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob := donor.Snapshot()

	big := small
	big.MaxInsts = 4_000
	big.MaxCycles = 400_000
	resumed := new(cpu.Machine)
	if err := resumed.Restore(big, blob); err != nil {
		t.Fatal(err)
	}
	st, err := resumed.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 4_000 {
		t.Errorf("resumed run committed %d instructions, want 4000", st.Committed)
	}

	// Reference: one uninterrupted-except-snapshot run at the large
	// budget whose snapshot fires at the same committed count.
	ref, err := cpu.New(big, program)
	if err != nil {
		t.Fatal(err)
	}
	refHalf := big
	refHalf.MaxInsts = 2_000
	refM, err := cpu.New(refHalf, program)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refM.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ref.Restore(big, refM.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := st
	if !reflect.DeepEqual(want, got) {
		t.Errorf("budget-raised resume diverges from reference:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestRestoreRejectsMismatch: a snapshot must only restore under a
// configuration with the same fingerprint.
func TestRestoreRejectsMismatch(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SS2()
	cfg.MaxInsts = 1_000
	cfg.MaxCycles = 100_000
	donor, err := cpu.New(cfg, program)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob := donor.Snapshot()

	for _, alt := range []struct {
		name string
		cfg  cpu.Config
	}{
		{"different model", func() cpu.Config { c := SS3(); c.MaxInsts = 1_000; return c }()},
		{"different geometry", func() cpu.Config {
			c := SS2()
			c.RUUSize = 256
			c.MaxInsts = 1_000
			return c
		}()},
		{"different fault seed", func() cpu.Config {
			c := SS2()
			c.Fault = fault.Config{Rate: 1e-4, Seed: 3}
			c.MaxInsts = 1_000
			return c
		}()},
	} {
		if err := new(cpu.Machine).Restore(alt.cfg, blob); !errors.Is(err, cpu.ErrSnapshotMismatch) {
			t.Errorf("%s: Restore returned %v, want ErrSnapshotMismatch", alt.name, err)
		}
	}

	// Same fingerprint, different run limits: accepted.
	bigger := cfg
	bigger.MaxInsts = 2_000
	if err := new(cpu.Machine).Restore(bigger, blob); err != nil {
		t.Errorf("run-limit change rejected: %v", err)
	}
}

// TestRestoreRejectsCorruption: every truncation and any bit flip of
// a valid snapshot must be rejected with a typed error, never
// misapplied or panicking.
func TestRestoreRejectsCorruption(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SS2()
	cfg.Fault = fault.Config{Rate: 1e-3, Seed: 2, Targets: fault.AllTargets}
	cfg.MaxInsts = 1_000
	cfg.MaxCycles = 100_000
	donor, err := cpu.New(cfg, program)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob := donor.Snapshot()

	// Restoring the pristine blob works.
	if err := new(cpu.Machine).Restore(cfg, blob); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	// Bit flips anywhere are caught by the checksum.
	for _, pos := range []int{0, 7, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0x40
		if err := new(cpu.Machine).Restore(cfg, bad); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("bit flip at %d: Restore returned %v, want ErrCorrupt", pos, err)
		}
	}
	// Truncations at a sample of lengths.
	for n := 0; n < len(blob); n += 97 {
		if err := new(cpu.Machine).Restore(cfg, blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}
