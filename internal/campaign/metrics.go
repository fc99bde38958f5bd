package campaign

import (
	"errors"
	"repro/internal/obs"
)

// Trial outcome classes, the label values of the trials-total counter.
// A trial has exactly one outcome: its error decides the class.
const (
	OutcomeOK        = "ok"
	OutcomePanic     = "panic"
	OutcomeTimeout   = "timeout"
	OutcomeCancelled = "cancelled"
	OutcomeFailed    = "failed"
)

// outcomeOf classifies a trial's final error.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, ErrTrialPanic):
		return OutcomePanic
	case errors.Is(err, ErrTrialTimeout):
		return OutcomeTimeout
	case isCancellation(err):
		return OutcomeCancelled
	default:
		return OutcomeFailed
	}
}

// Metrics is the campaign engine's instrumentation: a set of obs
// instruments the runner updates as trials complete and the checkpoint
// journal syncs. One Metrics may be shared by any number of concurrent
// campaigns (a daemon wires a single instance into every job); all
// updates are atomic.
//
// Instrumentation is a pure tap: a Runner with Metrics produces
// byte-identical results to one without (proved by the ftsim
// equivalence test), it only observes.
type Metrics struct {
	// trialSeconds is the wall-time histogram of executed (not resumed)
	// trials, labelled by outcome.
	trialSeconds *obs.HistogramVec
	// trials counts trials by outcome.
	trials *obs.CounterVec
	// resumed counts trials restored from a checkpoint journal instead
	// of executed.
	resumed *obs.Counter
	// ckptSyncs / ckptRecords / ckptBytes count checkpoint-journal
	// fsyncs, the trial records they made durable, and the bytes written
	// to stable storage.
	ckptSyncs   *obs.Counter
	ckptRecords *obs.Counter
	ckptBytes   *obs.Counter
}

// NewMetrics registers the campaign instruments on r (idempotently:
// calling it twice on one registry yields two handles onto the same
// series) and returns the handle a Runner carries.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		trialSeconds: r.NewHistogram("ftsim_trial_seconds",
			"Wall-clock duration of executed campaign trials.", nil, "outcome"),
		trials: r.NewCounter("ftsim_trials_total",
			"Campaign trials by terminal outcome.", "outcome"),
		resumed: r.NewCounter("ftsim_trials_resumed_total",
			"Trials restored from a checkpoint journal instead of executed.").With(),
		ckptSyncs: r.NewCounter("ftsim_checkpoint_syncs_total",
			"Checkpoint-journal fsync calls.").With(),
		ckptRecords: r.NewCounter("ftsim_checkpoint_synced_records_total",
			"Trial records made durable by checkpoint fsyncs.").With(),
		ckptBytes: r.NewCounter("ftsim_checkpoint_synced_bytes_total",
			"Bytes written to checkpoint journals, counted at fsync.").With(),
	}
}

// trialFinished records one executed trial's result.
func (m *Metrics) trialFinished(outcome string, seconds float64) {
	if m == nil {
		return
	}
	m.trials.With(outcome).Inc()
	m.trialSeconds.With(outcome).Observe(seconds)
}

// trialsResumed records trials restored from a journal.
func (m *Metrics) trialsResumed(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.resumed.Add(uint64(n))
}

// checkpointSynced records one journal fsync that made records trial
// records (possibly 0, for the header) and bytes bytes durable.
func (m *Metrics) checkpointSynced(records int, bytes int64) {
	if m == nil {
		return
	}
	m.ckptSyncs.Inc()
	if records > 0 {
		m.ckptRecords.Add(uint64(records))
	}
	if bytes > 0 {
		m.ckptBytes.Add(uint64(bytes))
	}
}
