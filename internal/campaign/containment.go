package campaign

import (
	"context"
	"runtime/debug"

	"repro/internal/cpu"
)

// runTrial executes one trial once, under the runner's containment
// policy. A panic becomes *TrialPanicError. The per-trial deadline is
// cooperative: the trial's context fires at TrialTimeout and a
// simulation that plumbs it into its run loop (as ftsim's sessions do)
// stops promptly. An expired deadline is reported as
// *TrialTimeoutError — a real per-trial failure — except when the
// campaign context itself is done, in which case the cancellation is
// passed through untouched so an aborted campaign is not misread as a
// grid full of timeouts.
func (r Runner) runTrial(ctx context.Context, t Trial, seed int64) (st *cpu.Stats, err error) {
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
