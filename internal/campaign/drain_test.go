package campaign

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cpu"
)

// TestCheckpointSyncsOnCancelDrain is the graceful-shutdown regression
// test: when a campaign's parent context is cancelled while a slow
// trial is still in flight, the checkpoint journal must fsync the
// already-completed trials immediately — before Run returns — and any
// trial that still completes during the drain must be synced as it
// lands. Without the drain hook, results journaled since the last
// FlushEvery batch would stay unsynced until Close, i.e. until every
// in-flight trial finished, which a SIGTERM→SIGKILL shutdown window
// does not wait for.
func TestCheckpointSyncsOnCancelDrain(t *testing.T) {
	const quick = 5 // trials completed before the cancellation

	var mu sync.Mutex
	var syncs []int // records made durable per observed fsync
	synced := make(chan struct{}, 8)

	ck := &Checkpoint{
		Path: filepath.Join(t.TempDir(), "drain.ckpt"),
		Hash: 7,
		// Far larger than the grid: no batch fsync can fire on its own,
		// so any sync observed before Close is the drain path's.
		FlushEvery: 1000,
		syncHook: func(flushed int) {
			mu.Lock()
			syncs = append(syncs, flushed)
			mu.Unlock()
			synced <- struct{}{}
		},
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	inFlight := make(chan struct{})
	trials := make([]Trial, quick+1)
	for i := range trials {
		i := i
		trials[i] = Trial{
			Label: "t",
			Run: func(ctx context.Context, seed int64) (*cpu.Stats, error) {
				if i == quick {
					// The slow in-flight trial: signals that the quick
					// trials are all journaled (one worker, batch 1 for
					// a grid this small — strictly sequential), then
					// holds the drain open until the test has observed
					// the cancellation-time fsync.
					// It completes successfully, so its journal append
					// happens after cancellation and must sync at once.
					close(inFlight)
					<-release
				}
				return statsOf(uint64(i)), nil
			},
		}
	}

	runDone := make(chan error, 1)
	go func() {
		_, err := Runner{Workers: 1, Checkpoint: ck, Contain: true}.
			Run(ctx, Spec{Name: "drain", Seed: 3, Trials: trials})
		runDone <- err
	}()

	// Cancel once the quick trials are all journaled and the slow trial
	// is in flight — cancelling from the test goroutine exercises
	// exactly the external-SIGTERM shape.
	deadline := time.After(30 * time.Second)
	select {
	case <-inFlight:
	case <-deadline:
		t.Fatal("timed out waiting for the slow trial to start")
	}
	waitSync := func(what string) int {
		select {
		case <-synced:
		case err := <-runDone:
			t.Fatalf("Run returned (err=%v) before %s", err, what)
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
		mu.Lock()
		defer mu.Unlock()
		return syncs[len(syncs)-1]
	}

	cancel()
	if got := waitSync("the drain fsync"); got != quick {
		t.Errorf("drain fsync flushed %d records, want the %d completed trials", got, quick)
	}

	// Unblock the in-flight trial; its post-cancellation append must be
	// synced individually (drain switches the journal to sync-per-append).
	close(release)
	if got := waitSync("the post-cancellation append fsync"); got != 1 {
		t.Errorf("post-drain append flushed %d records per fsync, want 1", got)
	}

	// Every trial was dispatched before the cancel and every one
	// completed, so the campaign itself finishes cleanly.
	if err := <-runDone; err != nil {
		t.Errorf("Run returned %v, want nil (all trials completed)", err)
	}

	// Nothing was pending at Close, so the journal saw exactly the two
	// drain-path syncs.
	mu.Lock()
	defer mu.Unlock()
	if len(syncs) != 2 {
		t.Errorf("observed %d fsyncs %v, want 2 (drain + post-drain append)", len(syncs), syncs)
	}
}
