package campaign

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestBatchingDeterminism: results — values, seeds, labels, order — are
// identical across every batch size and worker count, because seeds
// derive from trial indices and results are stored by index.
func TestBatchingDeterminism(t *testing.T) {
	const trials = 50
	mkTrials := func() []Trial {
		ts := make([]Trial, trials)
		for i := range ts {
			idx := i
			ts[i] = Trial{
				Label: fmt.Sprintf("t%d", idx),
				Run: func(ctx context.Context, seed int64) (any, error) {
					return fmt.Sprintf("%d:%d", idx, seed), nil
				},
			}
		}
		return ts
	}
	var ref []Result
	for _, workers := range []int{1, 3} {
		for _, batch := range []int{0, 1, 7, 1000} {
			rep, err := Runner{Workers: workers, Batch: batch}.Run(
				context.Background(), Spec{Name: "batch", Seed: 42, Trials: mkTrials()})
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
			}
			if ref == nil {
				ref = rep.Results
				continue
			}
			for i := range rep.Results {
				got, want := rep.Results[i], ref[i]
				if got.Value != want.Value || got.Seed != want.Seed || got.Label != want.Label || got.Index != want.Index {
					t.Errorf("workers=%d batch=%d trial %d: %+v != reference %+v",
						workers, batch, i, got, want)
				}
			}
		}
	}
}

// TestAutoBatchSizing pins the auto batch heuristic's envelope: 1 for
// small grids, bounded by 32, and never zero.
func TestAutoBatchSizing(t *testing.T) {
	r := Runner{}
	for _, tc := range []struct{ n, w, want int }{
		{1, 1, 1},
		{33, 4, 1},
		{320, 4, 10},
		{100_000, 4, 32},
	} {
		if got := r.batch(tc.n, tc.w); got != tc.want {
			t.Errorf("batch(%d, %d) = %d, want %d", tc.n, tc.w, got, tc.want)
		}
	}
	if got := (Runner{Batch: 5}).batch(1000, 4); got != 5 {
		t.Errorf("explicit Batch ignored: got %d", got)
	}
}

// TestBatchedCancellation: cancelling the campaign context stops
// dispatch between batches and surfaces the cancellation; trials inside
// an already-dispatched batch still observe the cancelled context.
func TestBatchedCancellation(t *testing.T) {
	const trials = 40
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	ts := make([]Trial, trials)
	for i := range ts {
		ts[i] = Trial{Run: func(c context.Context, seed int64) (any, error) {
			ran++
			if ran == 3 {
				cancel()
			}
			return nil, c.Err() // nil before cancellation, Canceled after
		}}
	}
	rep, err := Runner{Workers: 1, Batch: 8}.Run(ctx, Spec{Name: "cancel", Trials: ts})
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
