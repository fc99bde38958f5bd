package campaign

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
)

func TestTrialSeed(t *testing.T) {
	// Deterministic, index-sensitive, seed-sensitive, never zero.
	if TrialSeed(1, 0) != TrialSeed(1, 0) {
		t.Fatal("TrialSeed not deterministic")
	}
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for idx := 0; idx < 256; idx++ {
			s := TrialSeed(seed, idx)
			if s == 0 {
				t.Fatalf("TrialSeed(%d,%d) = 0", seed, idx)
			}
			if seen[s] {
				t.Fatalf("TrialSeed(%d,%d) = %d collides", seed, idx, s)
			}
			seen[s] = true
		}
	}
}

// statsOf is a trial value carrying n in the counter committed reads back.
func statsOf(n uint64) *cpu.Stats { return &cpu.Stats{Committed: n} }

// committed returns every trial's Committed counter in grid order,
// failing the test on a trial that did not succeed.
func committed(t *testing.T, rep *Report) []uint64 {
	t.Helper()
	out := make([]uint64, len(rep.Results))
	for i, res := range rep.Results {
		if res.Err != nil || res.Stats == nil {
			t.Fatalf("trial %d (%s): stats %v, err %v", i, res.Label, res.Stats, res.Err)
		}
		out[i] = res.Stats.Committed
	}
	return out
}

// testSpec builds a trial grid whose values depend only on (index,
// seed), with deliberately uneven trial durations so completion order
// scrambles.
func testSpec(n int) Spec {
	trials := make([]Trial, n)
	for i := range trials {
		i := i
		trials[i] = Trial{
			Label: fmt.Sprintf("trial-%d", i),
			Run: func(_ context.Context, seed int64) (*cpu.Stats, error) {
				time.Sleep(time.Duration((i*7)%5) * time.Millisecond)
				return statsOf(uint64(seed ^ int64(i))), nil
			},
		}
	}
	return Spec{Name: "test", Seed: 42, Trials: trials}
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []uint64 {
		rep, err := Runner{Workers: workers}.Run(context.Background(), testSpec(24))
		if err != nil {
			t.Fatal(err)
		}
		return committed(t, rep)
	}
	serial := run(1)
	for _, w := range []int{2, 8, 64} {
		got := run(w)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: trial %d = %d, serial = %d", w, i, got[i], serial[i])
			}
		}
	}
}

func TestRunnerReportAndProgress(t *testing.T) {
	var calls atomic.Int64
	lastDone := 0
	r := Runner{Workers: 4, Progress: func(done, total int, res Result) {
		calls.Add(1)
		if total != 24 {
			t.Errorf("total = %d", total)
		}
		if done != lastDone+1 { // serialised by the runner
			t.Errorf("done jumped %d -> %d", lastDone, done)
		}
		lastDone = done
		if res.Seed != TrialSeed(42, res.Index) {
			t.Errorf("trial %d seed %d, want %d", res.Index, res.Seed, TrialSeed(42, res.Index))
		}
	}}
	rep, err := r.Run(context.Background(), testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 24 {
		t.Errorf("progress called %d times", calls.Load())
	}
	if rep.TrialSeconds.N() != 24 {
		t.Errorf("aggregated %d trial times", rep.TrialSeconds.N())
	}
	if rep.Wall <= 0 || rep.TrialSeconds.Sum() < 0 {
		t.Errorf("wall %v, work %v", rep.Wall, rep.TrialSeconds.Sum())
	}
	if rep.Workers != 4 {
		t.Errorf("workers = %d", rep.Workers)
	}
	if rep.Speedup() <= 0 {
		t.Errorf("speedup = %g", rep.Speedup())
	}
	for i, res := range rep.Results {
		if res.Index != i || res.Label == "" {
			t.Fatalf("result %d out of place: %+v", i, res)
		}
	}
}

func TestSeedIndexGrouping(t *testing.T) {
	// Paired trials (same seed group) must receive the identical seed,
	// and the reported Result.Seed must be the seed the trial ran with.
	spec := testSpec(8)
	spec.SeedIndex = func(i int) int { return i / 2 }
	rep, err := Runner{Workers: 4}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i += 2 {
		a, b := rep.Results[i], rep.Results[i+1]
		if a.Seed != b.Seed {
			t.Errorf("pair %d: seeds %d != %d", i/2, a.Seed, b.Seed)
		}
		if a.Seed != TrialSeed(spec.Seed, i/2) {
			t.Errorf("pair %d: seed %d, want TrialSeed(%d,%d)", i/2, a.Seed, spec.Seed, i/2)
		}
		// The trial really ran with the reported seed (testSpec returns
		// seed ^ index).
		if got := a.Stats.Committed; got != uint64(a.Seed^int64(i)) {
			t.Errorf("trial %d ran with a different seed than reported", i)
		}
	}
}

func TestRunnerErrorIsLowestIndex(t *testing.T) {
	boom := errors.New("boom")
	spec := testSpec(16)
	// Two failures; the reported one must be the lower index no matter
	// which completes first.
	spec.Trials[3].Run = func(context.Context, int64) (*cpu.Stats, error) { return nil, boom }
	spec.Trials[9].Run = func(context.Context, int64) (*cpu.Stats, error) { return nil, boom }
	for _, w := range []int{1, 8} {
		_, err := Runner{Workers: w}.Run(context.Background(), spec)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", w, err)
		}
		if !strings.Contains(err.Error(), "trial 3 (trial-3)") {
			t.Errorf("workers=%d: err names wrong trial: %v", w, err)
		}
	}
}

func TestRunnerEmptyAndCancel(t *testing.T) {
	rep, err := Runner{}.Run(context.Background(), Spec{Name: "empty"})
	if err != nil || len(rep.Results) != 0 {
		t.Fatalf("empty campaign: %v, %d results", err, len(rep.Results))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err = Runner{Workers: 2}.Run(ctx, testSpec(50))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	ran := 0
	for _, r := range rep.Results {
		if r.Stats != nil {
			ran++
		}
	}
	if ran == 50 {
		t.Error("cancel did not stop dispatch")
	}
}

// TestCancelReachesInFlightTrials: the campaign context is handed to
// every trial, so cancelling mid-trial interrupts running work instead
// of only stopping future dispatch.
func TestCancelReachesInFlightTrials(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	spec := Spec{Name: "cancel", Trials: []Trial{{
		Label: "blocker",
		Run: func(ctx context.Context, _ int64) (*cpu.Stats, error) {
			close(started)
			<-ctx.Done() // a well-behaved long trial honours its context
			return nil, ctx.Err()
		},
	}}}
	go func() {
		<-started
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := Runner{Workers: 1}.Run(ctx, spec)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("campaign returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation never reached the in-flight trial")
	}
}

// TestTrialFailureNotMaskedByCancellation: when one trial fails, the
// campaign cancels its siblings; the reported error must stay the real
// failure, not a lower-index sibling's context.Canceled.
func TestTrialFailureNotMaskedByCancellation(t *testing.T) {
	boom := errors.New("boom")
	blocked := make(chan struct{})
	spec := Spec{Name: "mask", Trials: []Trial{
		{Label: "innocent", Run: func(ctx context.Context, _ int64) (*cpu.Stats, error) {
			close(blocked)
			<-ctx.Done() // interrupted by the sibling's failure
			return nil, ctx.Err()
		}},
		{Label: "guilty", Run: func(context.Context, int64) (*cpu.Stats, error) {
			<-blocked // fail only once the innocent trial is in flight
			return nil, boom
		}},
	}}
	_, err := Runner{Workers: 2}.Run(context.Background(), spec)
	if !errors.Is(err, boom) {
		t.Fatalf("campaign returned %v, want the real failure", err)
	}
	if !strings.Contains(err.Error(), "guilty") {
		t.Errorf("error %v does not name the failing trial", err)
	}
}
