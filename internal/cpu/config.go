// Package cpu implements the out-of-order superscalar performance
// simulator that the paper's fault-tolerance extensions attach to. It is
// the Go analogue of SimpleScalar's sim-outorder, with an execute-in-
// pipeline model: operand values really flow through the RUU, so
// redundant copies of an instruction can genuinely disagree when the
// fault injector corrupts one of them.
//
// The machine model follows the paper's Section 3.1 baseline: a Register
// Update Unit (RUU) holds all in-flight instructions in program order and
// doubles as reservation stations and reorder buffer; a separate load/
// store queue (LSQ) handles memory disambiguation and store-to-load
// forwarding; instructions issue out of order to the Table 1 functional
// unit mix and retire strictly in order.
//
// Redundant execution (R >= 2) implements Section 3.2: each fetched
// instruction dispatches into R consecutive RUU entries, renaming only
// the first copy and deriving copy k's operand tags by adding an offset
// of k; the commit stage checks the R copies against each other before a
// single instruction retires, and a rejected group rewinds the machine.
//
// Config is the one machine description: the same value is the
// datapath's configuration, the public ftsim.Config and the JSON wire
// format, so nothing translates between them. It is plain data: on
// every build, reset and restore the machine validates it, rounds the
// RUU down to a multiple of R, picks its commit checker (RewindChecker,
// or MajorityChecker under Majority) and seeds its own fault injector
// from Fault. Runtime taps that change what a host sees but never what
// the machine computes are Hooks, installed with SetHooks.
package cpu

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Model names one of the paper's four evaluated machine designs (plus
// the R=3 rewind-only ablation). A Config's Model is a label: the
// explicit fields fully describe the machine, so a deserialized Config
// replays the exact design it was saved from even if the preset
// definitions later change.
type Model string

const (
	// ModelSS1 is the unprotected Table 1 baseline superscalar.
	ModelSS1 Model = "ss1"
	// ModelSS2 is the 2-way dynamic-redundant design: instruction
	// injection, commit-stage checking, rewind recovery.
	ModelSS2 Model = "ss2"
	// ModelSS3 is the 3-way redundant design with majority election.
	ModelSS3 Model = "ss3"
	// ModelSS3Rewind is the 3-way design that always rewinds on any
	// mismatch (majority election disabled), for ablation.
	ModelSS3Rewind Model = "ss3rewind"
	// ModelStatic2 is one pipeline of the statically partitioned
	// two-pipeline lock-step processor of Section 5.1.2.
	ModelStatic2 Model = "static2"
)

// Models lists the machine models in the paper's order.
func Models() []Model {
	return []Model{ModelSS1, ModelSS2, ModelSS3, ModelSS3Rewind, ModelStatic2}
}

// Pipeline sizes the out-of-order datapath: front end, window and the
// Table 1 functional-unit mix. Widths that count RUU entries (dispatch,
// issue, commit) are shared by the R copies of each instruction, which
// is exactly how the paper's scheme loses throughput: an R-redundant
// machine dispatches and retires R entries per architectural
// instruction.
type Pipeline struct {
	FetchWidth      int `json:"fetch_width"`      // instructions fetched per cycle (one branch prediction per cycle)
	FetchQueue      int `json:"fetch_queue"`      // fetch queue depth, in instructions
	RedirectPenalty int `json:"redirect_penalty"` // extra front-end bubble cycles after any fetch redirect
	DispatchWidth   int `json:"dispatch_width"`   // RUU entries allocated per cycle
	IssueWidth      int `json:"issue_width"`      // RUU entries issued per cycle
	CommitWidth     int `json:"commit_width"`     // RUU entries retired per cycle
	// RUUSize is rounded down to a multiple of R by the machine
	// (128 -> 126 at R=3).
	RUUSize  int `json:"ruu_size"`
	LSQSize  int `json:"lsq_size"`
	IntALU   int `json:"int_alu"`
	IntMult  int `json:"int_mult"` // integer multiply/divide units
	FPAdd    int `json:"fp_add"`
	FPMult   int `json:"fp_mult"`   // FP multiply/divide/sqrt units
	MemPorts int `json:"mem_ports"` // D-cache read/write ports
}

// Config is a complete, JSON-serializable description of one
// fault-tolerant machine plus its run limits. Marshal it (JSON) to
// persist the exact machine a campaign ran. The zero value is not
// runnable — start from a preset (Model.Config) or call Normalized to
// fill Table 1 defaults.
type Config struct {
	// Name labels the machine in output ("SS-2"); presets fill it.
	Name string `json:"name,omitempty"`
	// Model records which paper design this config started from.
	Model Model `json:"model,omitempty"`

	// R is the degree of redundancy (1 = unprotected baseline).
	R int `json:"r"`
	// Majority selects the commit check for R >= 3: majority election
	// (MajorityChecker) instead of rewinding on any mismatch
	// (RewindChecker, the R = 2 design).
	Majority bool `json:"majority,omitempty"`
	// MajorityThreshold is how many copies must agree for an election
	// to commit; Normalized fills a simple majority, R/2+1.
	MajorityThreshold int `json:"majority_threshold,omitempty"`
	// CoSchedule makes copies of the same instruction prefer distinct
	// physical functional-unit instances (Section 3.5, "Multi-cycle and
	// Correlated Faults").
	CoSchedule bool `json:"co_schedule,omitempty"`
	// TransformOperands enables the Patel & Fung defence the paper cites
	// for persistent faults under time redundancy: redundant copy k
	// executes bitwise operations with operands rotated left by k and
	// un-rotates the result, so identical hard faults corrupt different
	// result bits in different copies and the commit check exposes them.
	TransformOperands bool `json:"transform_operands,omitempty"`
	// RecoveryPenalty adds this many cycles to every fault-triggered
	// rewind, modelling coarser-grain recovery schemes (the paper's
	// Figure 4 evaluates r = 2000 for checkpoint-style recovery; the
	// fine-grain rewind design keeps this at 0 and pays only the
	// pipeline refill).
	RecoveryPenalty int `json:"recovery_penalty,omitempty"`
	// Oracle enables the in-order co-simulation sanity check from
	// Section 5.1.1.
	Oracle bool `json:"oracle,omitempty"`

	// Fault is the transient-fault programme; a zero Rate disables
	// injection.
	Fault fault.Config `json:"fault,omitzero"`
	// Persistent models a hard stuck-bit fault in one physical unit's
	// bitwise-logic slice (Section 2.2's indiscernible-error scenario);
	// nil disables it.
	Persistent *fault.Persistent `json:"persistent,omitempty"`

	// Run limits. Zero means unlimited.
	MaxInsts  uint64 `json:"max_insts,omitempty"` // committed (architectural) instructions
	MaxCycles uint64 `json:"max_cycles,omitempty"`

	Pipeline   `json:"pipeline"`
	Memory     cache.HierarchyConfig `json:"memory"`
	BranchPred bpred.Config          `json:"branch_pred,omitzero"`
}

// Hooks are a machine's runtime taps. They change what a host sees of
// a run, never what the machine computes, so they are not part of the
// Config, its JSON or its Fingerprint.
type Hooks struct {
	// StrictOracle makes the first oracle divergence abort the run with
	// an *OracleError instead of only counting an escaped fault. It has
	// no effect unless Config.Oracle is set.
	StrictOracle bool
	// Tracer, when non-nil, receives per-copy pipeline events
	// (dispatch, issue, complete, commit, squash).
	Tracer trace.Recorder
	// Observe, when non-nil, is called from the run loop every
	// ObserveEvery cycles with the live statistics. The callback must
	// treat the Stats as read-only and must not retain the pointer past
	// the call: observation is a pure tap and never perturbs simulation
	// results.
	Observe func(*Stats)
	// ObserveEvery is the observation period in cycles; 0 disables
	// periodic observation even when Observe is set.
	ObserveEvery uint64
}

// SetHooks installs the machine's runtime taps. New, Reset and Restore
// start the machine with none.
func (m *Machine) SetHooks(h Hooks) { m.hooks = h }

// table1 is the paper's Table 1 datapath: an 8-way out-of-order
// superscalar with a 128-entry RUU, 64-entry LSQ, 4 integer ALUs, 2
// integer multipliers, 2 FP adders, 1 FP multiplier/divider and 2
// D-cache ports.
var table1 = Pipeline{
	FetchWidth: 8, FetchQueue: 16, RedirectPenalty: 2,
	DispatchWidth: 8, IssueWidth: 8, CommitWidth: 8,
	RUUSize: 128, LSQSize: 64,
	IntALU: 4, IntMult: 2, FPAdd: 2, FPMult: 1, MemPorts: 2,
}

// halved is the Static-2 pipeline of Section 5.1.2: one of the two
// statically partitioned lock-step pipelines, with half of every Table 1
// resource except the caches and branch predictor. Because FP multiply/
// divide cannot be split below one unit, each half keeps a full FPMult —
// the "extra FP Mult/Div unit" advantage the paper notes for Static-2.
var halved = Pipeline{
	FetchWidth: 4, FetchQueue: 8, RedirectPenalty: 2,
	DispatchWidth: 4, IssueWidth: 4, CommitWidth: 4,
	RUUSize: 64, LSQSize: 32,
	IntALU: 2, IntMult: 1, FPAdd: 1, FPMult: 1, MemPorts: 1,
}

// presets are the paper's machine models. Each differs from the others
// only in its redundancy policy and, for Static-2, in the halved
// datapath that Normalized fills in for it.
var presets = map[Model]Config{
	ModelSS1:       {R: 1},
	ModelSS2:       {R: 2},
	ModelSS3:       {R: 3, Majority: true},
	ModelSS3Rewind: {R: 3},
	ModelStatic2:   {R: 1},
}

// Config returns the named paper machine's full configuration, with
// every field explicit. Unknown models yield a config that fails
// Validate with ErrUnknownModel.
func (m Model) Config() Config {
	c, ok := presets[m]
	c.Model = m
	if !ok {
		return c
	}
	return c.Normalized()
}

// Normalized returns a copy with omitted sections filled in: a zero
// Pipeline, Memory or BranchPred takes the config's model preset (or
// the Table 1 baseline), R defaults to 1, a majority design gets its
// simple-majority threshold, and enabled fault injection with no
// targets becomes result-only. Normalization never changes an
// explicitly set field, so a persisted config replays exactly.
func (c Config) Normalized() Config {
	if c.R == 0 {
		c.R = 1
	}
	if c.Pipeline == (Pipeline{}) {
		c.Pipeline = table1
		if c.Model == ModelStatic2 {
			c.Pipeline = halved
		}
	}
	if c.Memory == (cache.HierarchyConfig{}) {
		c.Memory = cache.DefaultHierarchy()
	}
	if c.BranchPred == (bpred.Config{}) {
		c.BranchPred = bpred.Default()
	}
	if c.Majority && c.MajorityThreshold == 0 {
		c.MajorityThreshold = c.R/2 + 1
	}
	if len(c.Fault.Targets) == 0 {
		// An empty list and an absent one are the same config.
		c.Fault.Targets = nil
		if c.Fault.Enabled() {
			c.Fault.Targets = []fault.Target{fault.TargetResult}
		}
	}
	if c.Name == "" {
		c.Name = displayName(c.Model, c.R)
	}
	return c
}

func displayName(m Model, r int) string {
	switch m {
	case ModelSS1:
		return "SS-1"
	case ModelSS2:
		return "SS-2"
	case ModelSS3:
		return "SS-3"
	case ModelSS3Rewind:
		return "SS-3-rewind"
	case ModelStatic2:
		return "Static-2"
	}
	return fmt.Sprintf("custom-R%d", r)
}

// ErrInvalidConfig is the root of all configuration validation
// failures; the concrete errors are *ConfigError values naming the
// offending field. It and ErrUnknownModel keep the "ftsim:" prefix of
// the public API that re-exports them.
var ErrInvalidConfig = errors.New("ftsim: invalid configuration")

// ErrUnknownModel reports a Model label that names none of the
// paper's machine designs.
var ErrUnknownModel = errors.New("ftsim: unknown machine model")

// ConfigError is one configuration validation failure. Validate returns
// an errors.Join of every failure it finds, each a *ConfigError.
type ConfigError struct {
	// Field is the offending field in JSON path form, e.g. "fault.rate".
	Field string
	// Reason says what is wrong with the value.
	Reason string

	// cause, when non-nil, is a more specific sentinel (e.g.
	// ErrUnknownModel) surfaced through Unwrap.
	cause error
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("%v: %s: %s", ErrInvalidConfig, e.Field, e.Reason)
}

// Is makes errors.Is(err, ErrInvalidConfig) hold for every ConfigError.
func (e *ConfigError) Is(target error) bool { return target == ErrInvalidConfig }

// Unwrap exposes the more specific sentinel when there is one.
func (e *ConfigError) Unwrap() error { return e.cause }

// Validate checks the configuration and returns nil or an errors.Join
// of one *ConfigError per problem (each satisfying
// errors.Is(err, ErrInvalidConfig)). It allocates nothing for a valid
// configuration, so the per-trial Reset can afford it.
func (c Config) Validate() error {
	var errs []error
	bad := func(field, reason string, cause error) {
		errs = append(errs, &ConfigError{Field: field, Reason: reason, cause: cause})
	}

	if c.Model != "" {
		if _, ok := presets[c.Model]; !ok {
			bad("model", fmt.Sprintf("%q is not a known machine model", c.Model), ErrUnknownModel)
		}
	}
	if c.R < 1 {
		bad("r", fmt.Sprintf("redundancy %d < 1", c.R), nil)
	}
	if c.Majority && c.R < 3 {
		bad("majority", fmt.Sprintf("majority election needs R >= 3, have R=%d", c.R), nil)
	}
	// Zero means "simple majority" to Normalized, but an election
	// needs at least one agreeing copy.
	minThreshold := 0
	if c.Majority {
		minThreshold = 1
	}
	if c.MajorityThreshold < minThreshold || c.MajorityThreshold > c.R {
		bad("majority_threshold", fmt.Sprintf("threshold %d outside [%d, R=%d]", c.MajorityThreshold, minThreshold, c.R), nil)
	}
	if c.RecoveryPenalty < 0 {
		bad("recovery_penalty", "must be >= 0", nil)
	}

	if c.Fault.Rate < 0 || c.Fault.Rate > 1 {
		bad("fault.rate", fmt.Sprintf("rate %g is not a probability in [0, 1]", c.Fault.Rate), nil)
	}
	for _, t := range c.Fault.Targets {
		if t >= fault.NumTargets {
			bad("fault.targets", fmt.Sprintf("unknown fault target %d", uint8(t)), nil)
		}
	}
	if p := c.Persistent; p != nil {
		if p.Pool == isa.PoolNone || p.Pool >= isa.NumPools {
			bad("persistent.pool", fmt.Sprintf("unknown functional-unit pool %q", p.Pool), nil)
		}
		if p.Bit > 63 {
			bad("persistent.bit", fmt.Sprintf("bit %d outside [0, 63]", p.Bit), nil)
		}
	}

	p := c.Pipeline
	if p.FetchWidth < 1 || p.DispatchWidth < 1 || p.IssueWidth < 1 || p.CommitWidth < 1 {
		bad("pipeline", fmt.Sprintf("widths must all be >= 1 (fetch=%d dispatch=%d issue=%d commit=%d)",
			p.FetchWidth, p.DispatchWidth, p.IssueWidth, p.CommitWidth), nil)
	}
	if c.R >= 1 && (p.DispatchWidth < c.R || p.CommitWidth < c.R) {
		bad("pipeline", fmt.Sprintf("dispatch/commit width must be >= R=%d to make progress", c.R), nil)
	}
	if p.RUUSize < c.R || p.RUUSize < 1 {
		bad("pipeline.ruu_size", fmt.Sprintf("RUU size %d cannot hold one R=%d group", p.RUUSize, c.R), nil)
	}
	if p.LSQSize < 1 {
		bad("pipeline.lsq_size", fmt.Sprintf("LSQ size %d < 1", p.LSQSize), nil)
	}
	if p.FetchQueue < p.FetchWidth {
		bad("pipeline.fetch_queue", fmt.Sprintf("fetch queue %d smaller than fetch width %d", p.FetchQueue, p.FetchWidth), nil)
	}
	if p.RedirectPenalty < 0 {
		bad("pipeline.redirect_penalty", "must be >= 0", nil)
	}
	if p.IntALU < 1 || p.IntMult < 1 || p.FPAdd < 1 || p.FPMult < 1 || p.MemPorts < 1 {
		bad("pipeline", "every functional unit pool needs at least one unit", nil)
	}

	caches := [...]struct {
		name string
		c    cache.Config
	}{{"memory.il1", c.Memory.IL1}, {"memory.dl1", c.Memory.DL1}, {"memory.l2", c.Memory.L2}}
	for _, lv := range caches {
		g := lv.c
		// The way*line product is computed guardedly: naive int
		// multiplication of two huge (but individually legal-looking)
		// values can overflow to zero and panic the divisibility check.
		setBytes := 0
		if g.Ways >= 1 && g.LineBytes >= 1 && g.Ways <= g.SizeBytes/g.LineBytes {
			setBytes = g.Ways * g.LineBytes
		}
		if g.SizeBytes < 1 || g.Ways < 1 || g.LineBytes < 1 ||
			setBytes < 1 || g.SizeBytes%setBytes != 0 {
			bad(lv.name, fmt.Sprintf("bad geometry: %d bytes / %d ways / %d-byte lines", g.SizeBytes, g.Ways, g.LineBytes), nil)
		}
		if g.HitLatency < 1 {
			bad(lv.name+".hit_latency", "must be >= 1 cycle", nil)
		}
	}
	if c.Memory.Latency < 1 {
		bad("memory.latency", "must be >= 1 cycle", nil)
	}

	switch c.BranchPred.Kind {
	case "", bpred.KindCombined, bpred.KindBimodal, bpred.KindTwoLevel, bpred.KindTaken, bpred.KindNotTaken:
	default:
		bad("branch_pred.kind", fmt.Sprintf("unknown predictor kind %q", c.BranchPred.Kind), nil)
	}

	return errors.Join(errs...)
}

// JSON serializes the configuration, indented, with a trailing newline —
// the exact bytes ftsim.ParseConfig accepts and the golden files under
// ftsim/testdata pin for the paper's machine models.
func (c Config) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ruuSize is the architectural RUU capacity: Section 3.2 provisions
// the RUU as a multiple of R so a group's R copies always fit together.
// (The storage ring is a power of two regardless of R.)
func (c *Config) ruuSize() int { return c.RUUSize - c.RUUSize%c.R }
