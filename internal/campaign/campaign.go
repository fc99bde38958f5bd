// Package campaign runs experiment campaigns — grids of independent
// simulation trials, each yielding one *cpu.Stats — across a pool of
// worker goroutines.
//
// The paper's evaluation is an embarrassingly parallel sweep over
// (benchmark x machine configuration x fault rate) points: every trial
// builds its own program, machine and fault injector and shares no
// mutable state with any other trial. The engine exploits that by
// dispatching trials to GOMAXPROCS workers while keeping the results
// bit-identical to a serial run:
//
//   - each trial's RNG seed is derived from the campaign seed and the
//     trial's index (TrialSeed), never from completion order or worker
//     identity; and
//   - results are stored by trial index, so aggregation happens in grid
//     order no matter which worker finished first.
//
// A Runner therefore satisfies the invariant the determinism regression
// tests assert: the same Spec and seed produce byte-identical tables at
// Workers=1 and Workers=N.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/stats"
)

// Trial is one independent simulation point of a campaign grid.
type Trial struct {
	// Label names the trial in progress reports, e.g. "fig5/gcc/SS-2".
	Label string
	// Run executes the trial. The context is the campaign context and
	// fires when the campaign is cancelled or a sibling trial fails;
	// long-running trials should plumb it into their simulation so an
	// abort stops in-flight work promptly, not just future dispatch.
	// The seed argument is the trial's derived RNG seed (TrialSeed of
	// the campaign seed and the trial index); trials that inject faults
	// must seed their injectors from it so the campaign stays
	// deterministic under any worker count.
	Run func(ctx context.Context, seed int64) (*cpu.Stats, error)
}

// Spec is a campaign: a named grid of trials and the master seed all
// per-trial seeds derive from.
type Spec struct {
	Name string
	Seed int64
	// SeedIndex maps a trial index to the index its seed derives from;
	// nil is the identity. Trials mapped to the same seed index receive
	// the identical derived seed, keeping the arms of a controlled
	// comparison (e.g. two designs at one fault rate) on one RNG stream.
	SeedIndex func(i int) int
	Trials    []Trial
}

// trialSeed derives trial i's seed, honouring SeedIndex grouping.
func (s Spec) trialSeed(i int) int64 {
	if s.SeedIndex != nil {
		i = s.SeedIndex(i)
	}
	return TrialSeed(s.Seed, i)
}

// Result is the outcome of one trial.
type Result struct {
	Index   int
	Label   string
	Seed    int64
	Stats   *cpu.Stats // nil unless the trial succeeded
	Err     error
	Elapsed time.Duration
}

// Failed reports whether the trial failed for a real reason: its error
// is not a cancellation. One failing trial cancels the campaign context
// (unless Runner.Contain), and the in-flight siblings it interrupts then
// return context.Canceled — noise that must not count as failures.
func (r *Result) Failed() bool { return r.Err != nil && !isCancellation(r.Err) }

// Progress observes trial completions as they happen. done counts
// completed trials including this one; calls are serialised by the
// runner but arrive in completion order, not index order.
type Progress func(done, total int, r Result)

// Report is a completed campaign: per-trial results in grid order plus
// streaming aggregates of the trial wall times.
type Report struct {
	Spec    string
	Results []Result
	// TrialSeconds aggregates per-trial wall-clock seconds as trials
	// complete (count, mean, min, max); its Sum is the total CPU-side
	// work, which together with Wall gives the realised parallel speedup.
	TrialSeconds stats.Stream
	// Wall is the end-to-end campaign duration.
	Wall time.Duration
	// Workers is the worker-pool size the campaign ran with.
	Workers int
	// Resumed counts trials restored from a checkpoint journal instead
	// of executed; their Results carry the journaled value and elapsed
	// time, and they contribute nothing to TrialSeconds or Wall.
	Resumed int
}

// Speedup is the realised parallelism: total per-trial work divided by
// wall-clock time (1.0 for a serial run, approaching Workers for a
// perfectly parallel grid). When workers oversubscribe the available
// cores, per-trial elapsed times include scheduler wait and the figure
// overstates true parallelism.
func (r *Report) Speedup() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return r.TrialSeconds.Sum() / r.Wall.Seconds()
}

// Err summarises the campaign's failures deterministically: the
// lowest-index real failure is always the one wrapped (so errors.Is /
// errors.As see the root cause regardless of completion order), and
// when containment let several trials fail the message carries the
// count. Cancellation errors are reported only when no trial Failed,
// so they never mask the root cause. Use Failures for the full
// manifest.
func (r *Report) Err() error {
	var cancelled, first error
	failed := 0
	for i := range r.Results {
		res := &r.Results[i]
		switch {
		case res.Failed():
			failed++
			if first == nil {
				first = fmt.Errorf("trial %d (%s): %w", i, res.Label, res.Err)
			}
		case res.Err != nil && cancelled == nil:
			cancelled = fmt.Errorf("trial %d (%s): %w", i, res.Label, res.Err)
		}
	}
	switch {
	case first == nil:
		return cancelled
	case failed == 1:
		return first
	default:
		return fmt.Errorf("%d of %d trials failed; first: %w", failed, len(r.Results), first)
	}
}

// TrialFailure is one entry of a campaign's error manifest.
type TrialFailure struct {
	Index int
	Label string
	Seed  int64
	Err   error
}

// Failures returns the error manifest: every trial that Failed, in
// grid order. Cancellation noise (siblings interrupted by an abort) is
// excluded, mirroring Err. An empty manifest with a non-nil Err means
// the campaign itself was cancelled.
func (r *Report) Failures() []TrialFailure {
	var out []TrialFailure
	for i := range r.Results {
		res := &r.Results[i]
		if !res.Failed() {
			continue
		}
		out = append(out, TrialFailure{Index: i, Label: res.Label, Seed: res.Seed, Err: res.Err})
	}
	return out
}

// isCancellation reports whether err is a context cancellation or
// deadline expiry rather than a trial's own failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// TrialSeed derives the RNG seed for one trial from the campaign seed.
// It is a splitmix64-style finaliser over (seed, index): cheap, stable
// across runs, and spreading consecutive indices to uncorrelated
// streams. The result is never zero, so downstream configs that treat a
// zero seed as "use the default" cannot be tripped by it.
func TrialSeed(campaignSeed int64, index int) int64 {
	x := uint64(campaignSeed)*0x9E3779B97F4A7C15 + uint64(index) + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return int64(x)
}

// Runner executes campaigns over a worker pool.
type Runner struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is invoked (serialised) after every trial.
	Progress Progress

	// Contain keeps the campaign running when a trial fails: instead of
	// cancelling the grid on the first failure (the zero-value,
	// fail-fast behaviour), the failed trial is recorded and every
	// other trial still runs, yielding partial results plus the error
	// manifest (Report.Failures). Panics are converted to
	// *TrialPanicError either way — a containment wrapper always
	// isolates a crashing trial from the worker pool.
	Contain bool
	// TrialTimeout, when positive, bounds each trial with a deadline
	// delivered through the trial's context; a trial that exceeds it
	// fails with *TrialTimeoutError. The deadline is cooperative —
	// trials must plumb their context into the simulation loop for it
	// to bite.
	TrialTimeout time.Duration

	// Checkpoint, when non-nil, journals completed trials to disk and
	// resumes a matching journal: already-recorded trials are restored
	// into the report instead of re-run.
	Checkpoint *Checkpoint

	// Metrics, when non-nil, receives the runner's instrumentation:
	// trial durations and outcomes, resumed trials, and checkpoint
	// fsync activity. A pure tap — results are identical with and
	// without it — that may be shared across concurrent campaigns.
	Metrics *Metrics
}

// batchSize is the number of consecutive trials handed to a worker per
// dispatch for n trials over w workers: 1 for small grids, up to 32 for
// big ones, so channel traffic amortises over cheap trials without
// hurting load balance. Batching never affects results — per-trial
// seeds derive from trial indices, not from scheduling — and
// cancellation still reaches every trial of an in-flight batch through
// the campaign context.
func batchSize(n, w int) int {
	b := n / (w * 8)
	if b < 1 {
		b = 1
	}
	if b > 32 {
		b = 32
	}
	return b
}

func (r Runner) workers(trials int) int {
	n := r.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > trials {
		n = trials
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Run executes every trial of the spec and returns the completed
// report. Without Contain, a trial failure does not abort trials
// already in flight but stops new trials from being dispatched; with
// Contain, failures are recorded and the rest of the grid still runs.
// Report.Err surfaces the lowest-index failure either way. The
// context cancels dispatch between trials.
func (r Runner) Run(ctx context.Context, spec Spec) (*Report, error) {
	n := len(spec.Trials)
	rep := &Report{Spec: spec.Name, Results: make([]Result, n), Workers: r.workers(n)}
	if n == 0 {
		return rep, nil
	}
	start := time.Now()

	var jw *journal
	var prefilled []bool
	if r.Checkpoint != nil {
		var resumed []Result
		var err error
		jw, resumed, err = r.Checkpoint.open(spec, r.Metrics)
		if err != nil {
			return nil, err
		}
		prefilled = make([]bool, n)
		for _, res := range resumed {
			prefilled[res.Index] = true
			rep.Results[res.Index] = res
		}
		rep.Resumed = len(resumed)
		r.Metrics.trialsResumed(rep.Resumed)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	batch := batchSize(n, rep.Workers)
	jobs := make(chan [2]int) // [start, end) trial-index ranges
	var wg sync.WaitGroup
	var mu sync.Mutex // guards done, rep.TrialSeconds, journal appends and Progress calls
	done := rep.Resumed

	// Fsync on drain: the moment the campaign is cancelled (parent
	// context or fail-fast), flush journaled-but-unsynced trials and
	// switch to sync-per-append. A SIGTERM'd process then has every
	// completed trial durable before its in-flight trials finish
	// draining — it cannot lose a batch of results to the follow-up
	// SIGKILL that graceful-shutdown timeouts deliver.
	if jw != nil {
		stopDrain := context.AfterFunc(ctx, func() {
			mu.Lock()
			jw.drain()
			mu.Unlock()
		})
		defer stopDrain()
	}

	for w := 0; w < rep.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rng := range jobs {
				for idx := rng[0]; idx < rng[1]; idx++ {
					if prefilled != nil && prefilled[idx] {
						continue // restored from the checkpoint journal
					}
					t := spec.Trials[idx]
					res := Result{Index: idx, Label: t.Label, Seed: spec.trialSeed(idx)}
					t0 := time.Now()
					res.Stats, res.Err = r.runTrial(ctx, t, res.Seed)
					res.Elapsed = time.Since(t0)
					rep.Results[idx] = res
					if res.Err != nil && !r.Contain {
						cancel()
					}
					mu.Lock()
					done++
					rep.TrialSeconds.Add(res.Elapsed.Seconds())
					r.Metrics.trialFinished(outcomeOf(res.Err), res.Elapsed.Seconds())
					if jw != nil && res.Err == nil {
						jw.append(res)
					}
					if r.Progress != nil {
						r.Progress(done, n, res)
					}
					mu.Unlock()
				}
			}
		}()
	}

	dispatched := 0
dispatch:
	for i := 0; i < n; i += batch {
		end := i + batch
		if end > n {
			end = n
		}
		select {
		case jobs <- [2]int{i, end}:
			dispatched += end - i
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	rep.Wall = time.Since(start)
	err := rep.Err()
	// Dispatch stopped early without any trial failing for a real
	// reason: the caller's context was cancelled. Surface the campaign-
	// level cancellation — a silently partial report would read as a
	// completed campaign, and a trial-level context.Canceled would bury
	// how much of the grid was abandoned.
	if dispatched < n && (err == nil || isCancellation(err)) {
		err = fmt.Errorf("campaign %s: cancelled after %d/%d trials dispatched: %w",
			spec.Name, dispatched, n, context.Cause(ctx))
	}
	if jw != nil {
		// Close under mu: the drain AfterFunc may still be contending for
		// the lock, and journal state is only ever touched under it.
		mu.Lock()
		ckErr := jw.Close()
		mu.Unlock()
		// A journal failure degrades durability, not results: the report
		// is complete in memory, so surface the checkpoint error alongside
		// (not instead of) any trial failure.
		if ckErr != nil {
			ckErr = fmt.Errorf("campaign %s: checkpoint: %w", spec.Name, ckErr)
			if err == nil {
				err = ckErr
			} else {
				err = errors.Join(err, ckErr)
			}
		}
	}
	return rep, err
}
