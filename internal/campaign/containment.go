package campaign

import (
	"context"
	"errors"
	"runtime/debug"
	"time"

	"repro/internal/backoff"
	"repro/internal/cpu"
)

// runTrial executes one trial under the runner's containment policy:
// panics become *TrialPanicError, each attempt runs under the
// per-trial deadline, and attempts that time out (ErrTrialTimeout —
// a loaded host can cause one without the trial being wedged for good)
// are re-attempted up to Retries times with capped doubling backoff.
// attempts reports how many attempts actually ran.
func (r Runner) runTrial(ctx context.Context, t Trial, seed int64) (st *cpu.Stats, attempts int, err error) {
	wait := backoff.New(r.RetryBackoff, 50*time.Millisecond)
	for {
		attempts++
		st, err = r.attempt(ctx, t, seed)
		if err == nil || attempts > r.Retries || !errors.Is(err, ErrTrialTimeout) || ctx.Err() != nil {
			return st, attempts, err
		}
		if !wait.Wait(ctx) {
			return st, attempts, err
		}
	}
}

// attempt is a single execution of the trial with panic containment
// and the per-attempt deadline. The deadline is cooperative: the
// trial's context fires at TrialTimeout and a simulation that plumbs
// it into its run loop (as ftsim's sessions do) stops promptly. An
// expired attempt deadline is reported as *TrialTimeoutError — a real
// per-trial failure — except when the campaign context itself is
// done, in which case the cancellation is passed through untouched so
// an aborted campaign is not misread as a grid full of timeouts.
func (r Runner) attempt(ctx context.Context, t Trial, seed int64) (st *cpu.Stats, err error) {
	actx := ctx
	if r.TrialTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.TrialTimeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			err = &TrialPanicError{Value: p, Stack: string(debug.Stack())}
		}
	}()
	st, err = t.Run(actx, seed)
	if err != nil && r.TrialTimeout > 0 && isCancellation(err) &&
		actx.Err() != nil && ctx.Err() == nil {
		err = &TrialTimeoutError{Timeout: r.TrialTimeout}
	}
	return st, err
}
