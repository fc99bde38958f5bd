package campaign

import (
	"errors"
	"fmt"
	"time"
)

var (
	// ErrTrialPanic is the sentinel every *TrialPanicError unwraps to:
	// a trial panicked and the panic was contained to that trial
	// instead of tearing down the whole campaign.
	ErrTrialPanic = errors.New("campaign: trial panicked")

	// ErrTrialTimeout is the sentinel every *TrialTimeoutError unwraps
	// to: a trial exceeded the per-trial deadline (Runner.TrialTimeout)
	// and was abandoned. It deliberately does NOT unwrap to
	// context.DeadlineExceeded — a wedged trial is a real failure of
	// that trial, not campaign-cancellation noise, and must not be
	// filtered out by Report.Err's cancellation handling.
	ErrTrialTimeout = errors.New("campaign: trial deadline exceeded")

	// ErrCheckpointMismatch is the sentinel every
	// *CheckpointMismatchError unwraps to: a checkpoint journal was
	// written by a different campaign (different name, seed, grid size
	// or config hash) and refusing to resume from it is the only safe
	// answer.
	ErrCheckpointMismatch = errors.New("campaign: checkpoint belongs to a different campaign")
)

// TrialPanicError is a panic converted into a per-trial error by the
// runner's containment wrapper.
type TrialPanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack string
}

func (e *TrialPanicError) Error() string {
	return fmt.Sprintf("%v: %v", ErrTrialPanic, e.Value)
}

// Unwrap makes errors.Is(err, ErrTrialPanic) hold.
func (e *TrialPanicError) Unwrap() error { return ErrTrialPanic }

// TrialTimeoutError reports a trial that exceeded Runner.TrialTimeout.
type TrialTimeoutError struct {
	Timeout time.Duration
}

func (e *TrialTimeoutError) Error() string {
	return fmt.Sprintf("%v (after %v)", ErrTrialTimeout, e.Timeout)
}

// Unwrap makes errors.Is(err, ErrTrialTimeout) hold.
func (e *TrialTimeoutError) Unwrap() error { return ErrTrialTimeout }

// CheckpointMismatchError explains which identity field of a
// checkpoint journal disagreed with the campaign trying to resume
// from it.
type CheckpointMismatchError struct {
	Path  string
	Field string // "name", "seed", "trials", "hash", "trial seed"
	Want  string
	Got   string
}

func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("%v: %s: journal has %s %s, campaign has %s",
		ErrCheckpointMismatch, e.Path, e.Field, e.Got, e.Want)
}

// Unwrap makes errors.Is(err, ErrCheckpointMismatch) hold.
func (e *CheckpointMismatchError) Unwrap() error { return ErrCheckpointMismatch }
