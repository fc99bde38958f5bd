package ftsim_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/ftsim"
)

// benchProgram builds a named benchmark or fails the test.
func benchProgram(t *testing.T, name string) *ftsim.Program {
	t.Helper()
	p, err := ftsim.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSnapshotRestoreResumesRun snapshots a budget-limited session and
// resumes it on a fresh machine under a larger budget: the resumed run
// must finish the workload with the same architectural results as an
// uninterrupted run. (Cycle counts may differ by the cost of the
// quiesce rewind; committed state may not.)
func TestSnapshotRestoreResumesRun(t *testing.T) {
	program, err := ftsim.Assemble("roundtrip.s", `
        li   r1, 3000           ; iterations
        li   r2, 11
        li   r3, 22
loop:   add  r2, r2, r1
        xor  r3, r3, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        out  r3
        halt
`)
	if err != nil {
		t.Fatal(err)
	}

	cfg := ftsim.Model("ss2").Config()
	cfg.MaxInsts = 4_000 // well short of the ~12k-instruction workload
	cfg.MaxCycles = 1_000_000

	m1, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := m1.Load(program)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := s1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st1.Halted {
		t.Fatal("donor run halted inside its budget; snapshot would not be mid-run")
	}
	blob := s1.Snapshot()

	full := cfg
	full.MaxInsts = 0 // run limits are exempt from the snapshot fingerprint

	m2, err := ftsim.NewFromConfig(full)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	m3, err := ftsim.NewFromConfig(full)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m3.Run(context.Background(), program)
	if err != nil {
		t.Fatal(err)
	}

	if !got.Halted {
		t.Error("resumed run did not reach halt")
	}
	if got.Committed != want.Committed {
		t.Errorf("committed instructions: resumed %d, uninterrupted %d", got.Committed, want.Committed)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Errorf("program output: resumed %v, uninterrupted %v", got.Output, want.Output)
	}
	if got.Cycles <= st1.Cycles {
		t.Errorf("resumed run's cycle count %d did not advance past the snapshot's %d", got.Cycles, st1.Cycles)
	}
}

// TestRestoreRejectsWrongMachine: a snapshot only restores onto an
// equivalent machine configuration.
func TestRestoreRejectsWrongMachine(t *testing.T) {
	cfg := ftsim.Model("ss2").Config()
	cfg.MaxInsts = 1_000
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Load(benchProgram(t, "gcc"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob := s.Snapshot()

	other, err := ftsim.NewFromConfig(ftsim.ModelSS3.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Restore(blob); !errors.Is(err, ftsim.ErrSnapshotMismatch) {
		t.Fatalf("restoring an SS-2 snapshot on SS-3 gave %v, want ErrSnapshotMismatch", err)
	}

	// Same machine: damaged blobs are rejected before touching state.
	for name, mangle := range map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)-7] },
		"bit-flipped": func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)/2] ^= 0x40; return c },
	} {
		m2, err := ftsim.NewFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m2.Restore(mangle(blob)); !errors.Is(err, ftsim.ErrSnapshotCorrupt) {
			t.Errorf("%s blob: got %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

// campaignGrid builds a small but non-trivial grid: two benchmarks
// across two fault rates on the 2-way redundant design.
func campaignGrid(t *testing.T) []ftsim.Trial {
	t.Helper()
	var trials []ftsim.Trial
	for _, bench := range []string{"gcc", "swim"} {
		p := benchProgram(t, bench)
		for _, rate := range []float64{0, 1e-4} {
			cfg := ftsim.Model("ss2").Config()
			cfg.MaxInsts = 2_000
			cfg.MaxCycles = 1_000_000
			cfg.Fault.Rate = rate
			if rate > 0 {
				cfg.Fault.Targets = ftsim.AllFaultTargets()
			}
			trials = append(trials, ftsim.Trial{
				Label:   fmt.Sprintf("%s/rate=%g", bench, rate),
				Config:  cfg,
				Program: p,
			})
		}
	}
	return trials
}

// TestRunCampaignDeterministicAcrossWorkers: any worker count produces
// identical statistics.
func TestRunCampaignDeterministicAcrossWorkers(t *testing.T) {
	trials := campaignGrid(t)
	var stats [][]*ftsim.Stats
	for _, workers := range []int{1, 4} {
		rep, err := ftsim.RunCampaign(context.Background(), "det", trials,
			ftsim.WithWorkers(workers), ftsim.WithCampaignSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		st, err := ftsim.CollectStats(rep)
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Error("campaign statistics differ between 1 and 4 workers")
	}
}

// TestRunCampaignTrialSeedOffset: a sub-range of a grid run with an
// offset WithTrialSeedIndex produces exactly the statistics the full
// run produced at those indices — the invariant that makes sharded
// campaigns merge byte-identical to unsharded ones. Fault injection is
// enabled on half the grid, so a wrong seed would change the numbers.
// A grouped mapping gives every trial of a group one fault stream.
func TestRunCampaignTrialSeedOffset(t *testing.T) {
	offset := func(off int) ftsim.CampaignOption {
		return ftsim.WithTrialSeedIndex(func(i int) int { return off + i })
	}
	trials := campaignGrid(t)
	full, err := ftsim.RunCampaign(context.Background(), "offset", trials,
		ftsim.WithCampaignSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ftsim.CollectStats(full)
	if err != nil {
		t.Fatal(err)
	}

	// Split the grid at every boundary, including the degenerate ones.
	for cut := 0; cut <= len(trials); cut++ {
		var got []*ftsim.Stats
		for _, part := range []struct{ lo, hi int }{{0, cut}, {cut, len(trials)}} {
			if part.lo == part.hi {
				continue
			}
			rep, err := ftsim.RunCampaign(context.Background(), "offset", trials[part.lo:part.hi],
				ftsim.WithCampaignSeed(5), offset(part.lo))
			if err != nil {
				t.Fatal(err)
			}
			st, err := ftsim.CollectStats(rep)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, st...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("split at %d: sharded statistics differ from the full run's", cut)
		}
	}

	// Negative control: at a fault rate high enough that every seed
	// injects many faults, shifting the offset must change the numbers —
	// otherwise the invariance above proves nothing about seeds.
	hot := ftsim.Model("ss2").Config()
	hot.MaxInsts = 2_000
	hot.MaxCycles = 1_000_000
	hot.Fault.Rate = 1e-2
	hot.Fault.Targets = ftsim.AllFaultTargets()
	hotTrial := []ftsim.Trial{{Label: "hot", Config: hot, Program: benchProgram(t, "gcc")}}
	var hotStats []*ftsim.Stats
	for _, off := range []int{0, 1} {
		rep, err := ftsim.RunCampaign(context.Background(), "offset", hotTrial,
			ftsim.WithCampaignSeed(5), offset(off))
		if err != nil {
			t.Fatal(err)
		}
		st, err := ftsim.CollectStats(rep)
		if err != nil {
			t.Fatal(err)
		}
		hotStats = append(hotStats, st...)
	}
	if reflect.DeepEqual(hotStats[0], hotStats[1]) {
		t.Error("seed offsets 0 and 1 produced identical fault statistics; offsets are not reaching seed derivation")
	}

	// Grouped: two copies of the hot trial mapped to seed index 0, the
	// pairing Fig 6 uses for its R=2/R=3 arms, share the seed and the
	// statistics of index 0.
	rep, err := ftsim.RunCampaign(context.Background(), "offset", append(hotTrial, hotTrial[0]),
		ftsim.WithCampaignSeed(5), ftsim.WithTrialSeedIndex(func(i int) int { return i / 2 }))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := ftsim.CollectStats(rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Seed != rep.Results[1].Seed {
		t.Errorf("grouped trials drew seeds %d and %d", rep.Results[0].Seed, rep.Results[1].Seed)
	}
	if !reflect.DeepEqual(pair[0], hotStats[0]) || !reflect.DeepEqual(pair[1], hotStats[0]) {
		t.Error("grouped trials' statistics differ from the run at seed index 0")
	}
}

// TestRunCampaignTimeoutManifest: with containment (the default), trials
// that exceed the per-trial deadline land in the error manifest as
// ErrTrialTimeout without aborting the campaign run.
func TestRunCampaignTimeoutManifest(t *testing.T) {
	trials := campaignGrid(t)
	rep, err := ftsim.RunCampaign(context.Background(), "slow", trials,
		ftsim.WithWorkers(2), ftsim.WithTrialTimeout(time.Nanosecond))
	if err == nil {
		t.Fatal("campaign full of timed-out trials reported success")
	}
	if !errors.Is(err, ftsim.ErrTrialTimeout) {
		t.Fatalf("campaign error %v does not unwrap to ErrTrialTimeout", err)
	}
	fails := rep.Failures()
	if len(fails) != len(trials) {
		t.Fatalf("manifest has %d failures, want %d", len(fails), len(trials))
	}
	for _, f := range fails {
		if !errors.Is(f.Err, ftsim.ErrTrialTimeout) {
			t.Errorf("trial %d (%s): %v, want ErrTrialTimeout", f.Index, f.Label, f.Err)
		}
	}
	if _, err := ftsim.CollectStats(rep); err == nil {
		t.Error("CollectStats over a failed grid reported success")
	}
}

// TestRunCampaignCheckpointResume kills a campaign (via context cancel)
// after two completed trials and resumes it from the journal: only the
// unfinished trials re-run, and the final statistics are identical to
// an uninterrupted campaign's.
func TestRunCampaignCheckpointResume(t *testing.T) {
	trials := campaignGrid(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	completed := 0
	partial, err := ftsim.RunCampaign(ctx, "resume", trials,
		ftsim.WithWorkers(1), // sequential, so exactly two trials finish
		ftsim.WithCheckpoint(path),
		ftsim.WithCampaignProgress(func(done, total int, r ftsim.TrialResult) {
			if completed++; completed == 2 {
				cancel()
			}
		}))
	if err == nil {
		t.Fatal("cancelled campaign reported success")
	}
	if _, err := ftsim.CollectStats(partial); err == nil {
		t.Error("CollectStats over trials that never ran reported success")
	}

	rep, err := ftsim.RunCampaign(context.Background(), "resume", trials,
		ftsim.WithCheckpoint(path))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 2 {
		t.Errorf("resumed %d trials from the journal, want 2", rep.Resumed)
	}
	got, err := ftsim.CollectStats(rep)
	if err != nil {
		t.Fatal(err)
	}

	clean, err := ftsim.RunCampaign(context.Background(), "resume", trials)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ftsim.CollectStats(clean)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("resumed campaign statistics differ from an uninterrupted run's")
	}

	// A third run over the now-complete journal executes nothing.
	rep, err = ftsim.RunCampaign(context.Background(), "resume", trials,
		ftsim.WithCheckpoint(path))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != len(trials) {
		t.Errorf("complete journal resumed %d trials, want all %d", rep.Resumed, len(trials))
	}
}

// TestRunCampaignCheckpointRejectsChangedGrid: editing a trial's machine
// configuration invalidates the journal instead of silently mixing
// results from two different campaigns.
func TestRunCampaignCheckpointRejectsChangedGrid(t *testing.T) {
	trials := campaignGrid(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	if _, err := ftsim.RunCampaign(context.Background(), "grid", trials,
		ftsim.WithCheckpoint(path)); err != nil {
		t.Fatal(err)
	}

	changed := append([]ftsim.Trial(nil), trials...)
	changed[1].Config.Fault.Rate = 5e-4
	_, err := ftsim.RunCampaign(context.Background(), "grid", changed,
		ftsim.WithCheckpoint(path))
	if !errors.Is(err, ftsim.ErrCheckpointMismatch) {
		t.Fatalf("changed grid resumed with %v, want ErrCheckpointMismatch", err)
	}
}
