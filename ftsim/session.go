package ftsim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/trace"
)

// Stats is the complete statistics of one simulation run — cycle and
// instruction counts, stall accounting, branch/cache behaviour, and the
// paper's fault-tolerance counters (faults detected, rewinds, majority
// elections, escaped faults). It is the same structure the internal
// simulator gathers, re-exported: the facade adds no translation
// layer, so the results are exactly the datapath's.
type Stats = cpu.Stats

// ErrSessionUsed reports a second Run on a session; sessions are
// single-use because a run consumes the machine's architectural state.
var ErrSessionUsed = errors.New("ftsim: session already run; Load a new one")

// Machine is a validated, immutable machine description plus the
// runtime hooks (observer, strictness) sessions inherit. Build one with
// NewFromConfig; it is safe for concurrent use — every Load creates an
// independent simulation.
type Machine struct {
	cfg      Config
	obs      Observer
	every    uint64
	strict   bool
	traceCap int
}

// NewFromConfig builds a machine from a complete configuration — a
// preset from Model.Config, edited as needed, or one restored by
// ParseConfig — plus any runtime options:
//
//	cfg := ftsim.ModelSS2.Config()
//	cfg.Fault = ftsim.FaultConfig{Rate: 1e-4, Targets: ftsim.AllFaultTargets()}
//	cfg.CoSchedule = true
//	cfg.MaxInsts = 1_000_000
//	m, err := ftsim.NewFromConfig(cfg)
//
// The machine keeps its own copy of cfg, so later edits to cfg (its
// fault targets or persistent fault included) do not reach it. The
// configuration is normalized and validated; errors satisfy
// errors.Is(err, ErrInvalidConfig).
func NewFromConfig(cfg Config, opts ...Option) (*Machine, error) {
	m := &Machine{cfg: cfg.clone()}
	for _, o := range opts {
		o(m)
	}
	m.cfg = m.cfg.Normalized()
	if err := m.cfg.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Config returns a copy of the machine's normalized configuration,
// ready to serialize with Config.JSON.
func (m *Machine) Config() Config { return m.cfg.clone() }

// clone deep-copies the config's reference-typed fields so callers
// cannot alias the machine's description.
func (c Config) clone() Config {
	c.Fault.Targets = append([]FaultTarget(nil), c.Fault.Targets...)
	if c.Persistent != nil {
		p := *c.Persistent
		c.Persistent = &p
	}
	return c
}

// newSession lowers the machine description to the cpu layer's
// configuration (the only place ftsim does so) and creates the Session
// that will run it, installing the session's observer, tracer and
// strict-oracle hooks.
func (m *Machine) newSession() (*Session, cpu.Config, error) {
	c, p := m.cfg, m.cfg.Pipeline
	cfg := cpu.Config{
		Name:            c.Name,
		FetchWidth:      p.FetchWidth,
		FetchQueue:      p.FetchQueue,
		RedirectPenalty: p.RedirectPenalty,
		RecoveryPenalty: c.RecoveryPenalty,
		DispatchWidth:   p.DispatchWidth,
		IssueWidth:      p.IssueWidth,
		CommitWidth:     p.CommitWidth,
		RUUSize:         p.RUUSize,
		LSQSize:         p.LSQSize,
		IntALU:          p.IntALU,
		IntMult:         p.IntMult,
		FPAdd:           p.FPAdd,
		FPMult:          p.FPMult,
		MemPorts:        p.MemPorts,
		Hierarchy: cache.HierarchyConfig{
			IL1:        c.Memory.IL1.toCache("il1"),
			DL1:        c.Memory.DL1.toCache("dl1"),
			L2:         c.Memory.L2.toCache("ul2"),
			MemLatency: c.Memory.Latency,
		},
		Bpred:             c.BranchPred.toBpred(),
		R:                 c.R,
		CoSchedule:        c.CoSchedule,
		Majority:          c.Majority,
		MajorityThreshold: c.MajorityThreshold,
		Fault:             fault.Config{Rate: c.Fault.Rate, Seed: c.Fault.Seed},
		TransformOperands: c.TransformOperands,
		Oracle:            c.Oracle,
		StrictOracle:      m.strict,
		MaxInsts:          c.MaxInsts,
		MaxCycles:         c.MaxCycles,
	}
	for _, t := range c.Fault.Targets {
		ft, err := t.target()
		if err != nil {
			return nil, cpu.Config{}, &ConfigError{Field: "fault.targets", Reason: err.Error()}
		}
		cfg.Fault.Targets = append(cfg.Fault.Targets, ft)
	}
	if c.Persistent != nil {
		pool, err := poolByName(c.Persistent.Pool)
		if err != nil {
			return nil, cpu.Config{}, &ConfigError{Field: "persistent.pool", Reason: err.Error()}
		}
		cfg.Persistent = &fault.Persistent{Pool: pool, Unit: c.Persistent.Unit, Bit: c.Persistent.Bit}
	}

	s := &Session{name: c.Name, obs: m.obs}
	if m.obs != nil {
		cfg.Observe = s.tap
		cfg.ObserveEvery = cmp.Or(m.every, DefaultObserveEvery)
	}
	if m.traceCap > 0 {
		s.trace = trace.NewBuffer(m.traceCap)
		cfg.Tracer = s.trace
	}
	return s, cfg, nil
}

// Load instantiates one simulation of the program on this machine: the
// image is cloned into fresh memory, the fault injector is seeded from
// the config, and the session is ready to Run. Sessions are
// independent; any number may run concurrently.
func (m *Machine) Load(p *Program) (*Session, error) {
	s, cfg, err := m.newSession()
	if err != nil {
		return nil, err
	}
	if s.cm, err = cpu.New(cfg, p.p); err != nil {
		// The facade validates ahead of time, so reaching here means a
		// constraint only the cpu layer checks; fold it into the same
		// taxonomy.
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	return s, nil
}

// Run is the one-shot convenience: Load the program and Run the session
// under ctx.
func (m *Machine) Run(ctx context.Context, p *Program) (*Stats, error) {
	s, err := m.Load(p)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx)
}

// Session is one in-flight simulation: a machine instance loaded with a
// program. It is single-use and confined to one goroutine.
type Session struct {
	cm    *cpu.Machine
	name  string
	obs   Observer
	trace *trace.Buffer
	ran   bool

	// Previous-sample counters for interval deltas.
	prevCycles, prevCommitted, prevDetected, prevRewinds uint64
}

// Name returns the machine name the session runs on ("SS-2").
func (s *Session) Name() string { return s.name }

// Run simulates until the program halts or a run limit is reached,
// streaming Interval samples to the machine's Observer along the way,
// and returns the final statistics.
//
// The context is plumbed into the pipeline loop: cancellation or a
// deadline stops the simulation promptly and returns ctx.Err()
// alongside the statistics gathered so far. Other errors are the typed
// taxonomy: ErrDeadlock, and under WithStrictOracle an *OracleError
// (errors.Is ErrOracleMismatch).
func (s *Session) Run(ctx context.Context) (*Stats, error) {
	if s.ran {
		return nil, ErrSessionUsed
	}
	s.ran = true
	st, err := s.cm.RunContext(ctx)
	if s.obs != nil {
		s.emit(st, true)
	}
	return st, err
}

// Stats returns the statistics gathered so far. It must not be called
// while Run is executing on another goroutine.
func (s *Session) Stats() *Stats { return s.cm.Stats() }

// WriteTimeline renders the pipeline-event timeline recorded by
// WithTraceBuffer. Without the option it writes nothing.
func (s *Session) WriteTimeline(w io.Writer) {
	if s.trace != nil {
		s.trace.Timeline(w)
	}
}

// tap is the cpu-layer observation hook for periodic samples.
func (s *Session) tap(st *cpu.Stats) { s.emit(st, false) }

// emit converts a live Stats snapshot into an Interval sample.
func (s *Session) emit(st *cpu.Stats, final bool) {
	iv := Interval{
		Cycles:          st.Cycles,
		Committed:       st.Committed,
		FaultsDetected:  st.FaultsDetected,
		FaultRewinds:    st.FaultRewinds,
		MajorityCommits: st.MajorityCommits,
		BranchRewinds:   st.BranchRewinds,
		EscapedFaults:   st.EscapedFaults,
		Final:           final,
	}
	if st.Cycles > 0 {
		iv.IPC = float64(st.Committed) / float64(st.Cycles)
	}
	iv.DeltaCommitted = st.Committed - s.prevCommitted
	iv.DeltaFaultsDetected = st.FaultsDetected - s.prevDetected
	iv.DeltaFaultRewinds = st.FaultRewinds - s.prevRewinds
	if dc := st.Cycles - s.prevCycles; dc > 0 {
		iv.IntervalIPC = float64(iv.DeltaCommitted) / float64(dc)
	}
	s.prevCycles, s.prevCommitted = st.Cycles, st.Committed
	s.prevDetected, s.prevRewinds = st.FaultsDetected, st.FaultRewinds
	s.obs.Observe(iv)
}
