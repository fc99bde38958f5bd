package campaign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpu"
)

// TestBatchingDeterminism: results — values, seeds, labels, order — are
// identical across every worker count, and so across the batch sizes
// those worker counts pick (1 to 32 over these grids), because seeds
// derive from trial indices and results are stored by index.
func TestBatchingDeterminism(t *testing.T) {
	for _, n := range []int{10, 50, 400} {
		trials := make([]Trial, n)
		for i := range trials {
			idx := i
			trials[i] = Trial{
				Label: fmt.Sprintf("t%d", idx),
				Run: func(ctx context.Context, seed int64) (*cpu.Stats, error) {
					return &cpu.Stats{Committed: uint64(idx), Cycles: uint64(seed)}, nil
				},
			}
		}
		var ref []Result
		for _, workers := range []int{1, 3, 8} {
			rep, err := Runner{Workers: workers}.Run(
				context.Background(), Spec{Name: "batch", Seed: 42, Trials: trials})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if ref == nil {
				ref = rep.Results
				continue
			}
			for i := range rep.Results {
				got, want := rep.Results[i], ref[i]
				if !reflect.DeepEqual(got.Stats, want.Stats) || got.Seed != want.Seed || got.Label != want.Label || got.Index != want.Index {
					t.Errorf("n=%d workers=%d (batch %d) trial %d: %+v != reference %+v",
						n, workers, batchSize(n, workers), i, got, want)
				}
			}
		}
	}
}

// TestAutoBatchSizing pins the batch heuristic's envelope: 1 for small
// grids, bounded by 32, and never zero.
func TestAutoBatchSizing(t *testing.T) {
	for _, tc := range []struct{ n, w, want int }{
		{1, 1, 1},
		{33, 4, 1},
		{320, 4, 10},
		{100_000, 4, 32},
	} {
		if got := batchSize(tc.n, tc.w); got != tc.want {
			t.Errorf("batchSize(%d, %d) = %d, want %d", tc.n, tc.w, got, tc.want)
		}
	}
}

// TestBatchedCancellation: cancelling the campaign context stops
// dispatch between batches and surfaces the cancellation; trials inside
// an already-dispatched batch still observe the cancelled context.
func TestBatchedCancellation(t *testing.T) {
	const trials = 40 // batches of 5 on one worker
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	ts := make([]Trial, trials)
	for i := range ts {
		ts[i] = Trial{Run: func(c context.Context, seed int64) (*cpu.Stats, error) {
			ran++
			if ran == 3 {
				cancel()
			}
			return nil, c.Err() // nil before cancellation, Canceled after
		}}
	}
	rep, err := Runner{Workers: 1}.Run(ctx, Spec{Name: "cancel", Trials: ts})
	if err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v", err)
	}
	if rep == nil || ran >= trials {
		t.Fatalf("cancellation did not stop dispatch (ran %d/%d)", ran, trials)
	}
}
