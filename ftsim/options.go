package ftsim

// Option sets a runtime hook on a Machine under construction: the
// hooks that NewFromConfig takes beside the Config because they are
// not part of the serializable machine description.
type Option func(*Machine)

// WithStrictOracle enables the oracle and additionally makes the first
// divergence abort the run with an *OracleError (errors.Is
// ErrOracleMismatch), instead of only counting an escaped fault.
func WithStrictOracle() Option {
	return func(m *Machine) {
		m.cfg.Oracle = true
		m.strict = true
	}
}

// WithObserver streams Interval samples to obs while sessions run, at
// the DefaultObserveEvery period unless WithObserveEvery overrides it.
func WithObserver(obs Observer) Option {
	return func(m *Machine) { m.obs = obs }
}

// WithObserveEvery sets the observation period in simulated cycles.
func WithObserveEvery(cycles uint64) Option {
	return func(m *Machine) { m.every = cycles }
}

// WithTraceBuffer records the last capacity per-copy pipeline events
// (dispatch, issue, complete, commit, squash) of each session; render
// them after the run with Session.WriteTimeline. Each instruction copy
// generates up to four events.
func WithTraceBuffer(capacity int) Option {
	return func(m *Machine) { m.traceCap = capacity }
}
