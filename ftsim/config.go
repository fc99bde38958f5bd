package ftsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/isa"
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

// PipelineConfig sizes the out-of-order datapath: front end, window and
// the Table 1 functional-unit mix. Widths that count RUU entries
// (dispatch, issue, commit) are shared by the R redundant copies of each
// instruction.
type PipelineConfig struct {
	FetchWidth      int `json:"fetch_width"`
	FetchQueue      int `json:"fetch_queue"`
	RedirectPenalty int `json:"redirect_penalty"`
	DispatchWidth   int `json:"dispatch_width"`
	IssueWidth      int `json:"issue_width"`
	CommitWidth     int `json:"commit_width"`
	RUUSize         int `json:"ruu_size"`
	LSQSize         int `json:"lsq_size"`
	IntALU          int `json:"int_alu"`
	IntMult         int `json:"int_mult"`
	FPAdd           int `json:"fp_add"`
	FPMult          int `json:"fp_mult"`
	MemPorts        int `json:"mem_ports"`
}

// CacheConfig is one cache level's geometry and hit latency.
type CacheConfig struct {
	SizeBytes  int `json:"size_bytes"`
	Ways       int `json:"ways"`
	LineBytes  int `json:"line_bytes"`
	HitLatency int `json:"hit_latency"`
}

// String renders the geometry, e.g. "64KB 2-way 32B-line (1-cycle hit)".
func (c CacheConfig) String() string {
	return fmt.Sprintf("%dKB %d-way %dB-line (%d-cycle hit)",
		c.SizeBytes/1024, c.Ways, c.LineBytes, c.HitLatency)
}

// MemoryConfig is the Table 1 cache hierarchy: split L1s over a unified
// L2 over flat-latency main memory.
type MemoryConfig struct {
	IL1     CacheConfig `json:"il1"`
	DL1     CacheConfig `json:"dl1"`
	L2      CacheConfig `json:"l2"`
	Latency int         `json:"latency"` // main-memory access cycles
}

// BranchPredConfig describes the branch predictor. A zero value takes
// the Table 1 combined predictor.
type BranchPredConfig struct {
	Kind        string `json:"kind,omitempty"` // comb|bimodal|twolevel|taken|nottaken
	BimodalSize int    `json:"bimodal_size,omitempty"`
	L1Size      int    `json:"l1_size,omitempty"`
	HistBits    int    `json:"hist_bits,omitempty"`
	L2Size      int    `json:"l2_size,omitempty"`
	XOR         bool   `json:"xor,omitempty"`
	MetaSize    int    `json:"meta_size,omitempty"`
	BTBSets     int    `json:"btb_sets,omitempty"`
	BTBWays     int    `json:"btb_ways,omitempty"`
	RASSize     int    `json:"ras_size,omitempty"`
}

// String renders the predictor description.
func (b BranchPredConfig) String() string { return b.toBpred().String() }

// FaultTarget selects which speculative value transient faults corrupt.
type FaultTarget string

const (
	FaultResult   FaultTarget = "result"   // computed result at writeback
	FaultAddress  FaultTarget = "address"  // memory effective address
	FaultResident FaultTarget = "resident" // completed result waiting in the ROB
	FaultBranch   FaultTarget = "branch"   // control-flow outcome (next-PC)
)

// AllFaultTargets lists every injection point.
func AllFaultTargets() []FaultTarget {
	return []FaultTarget{FaultResult, FaultAddress, FaultResident, FaultBranch}
}

// FaultConfig parameterises transient-fault injection.
type FaultConfig struct {
	// Rate is the probability that one executed instruction copy is
	// corrupted; zero disables injection.
	Rate float64 `json:"rate,omitempty"`
	// Seed makes the fault stream reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Targets are the enabled injection points; empty means result-only.
	Targets []FaultTarget `json:"targets,omitempty"`
}

// Enabled reports whether the configuration injects any faults.
func (f FaultConfig) Enabled() bool { return f.Rate > 0 }

// PersistentFault models a hard stuck-at-1 bit in the bitwise-logic
// slice of one physical functional unit (Section 2.2).
type PersistentFault struct {
	Pool string `json:"pool"` // int-alu|int-mult|fp-add|fp-mult|mem-port
	Unit int    `json:"unit"`
	Bit  uint   `json:"bit"`
}

// Config is a complete, JSON-serializable description of one
// fault-tolerant machine plus its run limits. Marshal it to persist the
// exact machine a campaign ran; ParseConfig restores it. The zero value
// is not runnable — start from a preset (Model.Config) or call
// Normalized to fill Table 1 defaults.
type Config struct {
	// Name labels the machine in output ("SS-2"); presets fill it.
	Name string `json:"name,omitempty"`
	// Model records which paper design this config started from.
	Model Model `json:"model,omitempty"`

	// R is the degree of redundancy (1 = unprotected baseline).
	R int `json:"r"`
	// Majority enables majority election for R >= 3.
	Majority bool `json:"majority,omitempty"`
	// MajorityThreshold is the election acceptance threshold; zero
	// means a simple majority, R/2+1.
	MajorityThreshold int `json:"majority_threshold,omitempty"`
	// CoSchedule places redundant copies on distinct physical
	// functional units (Section 3.5).
	CoSchedule bool `json:"co_schedule,omitempty"`
	// TransformOperands rotates redundant copies' bitwise operands
	// (the Section 2.2 defence against persistent-fault masking).
	TransformOperands bool `json:"transform_operands,omitempty"`
	// RecoveryPenalty adds fixed cycles to each fault recovery;
	// 0 = the paper's fine-grain rewind.
	RecoveryPenalty int `json:"recovery_penalty,omitempty"`
	// Oracle enables the in-order co-simulation check of Section 5.1.1.
	Oracle bool `json:"oracle,omitempty"`

	// Fault configures transient-fault injection; Persistent models a
	// hard stuck bit in one functional unit (nil disables it).
	Fault      FaultConfig      `json:"fault,omitzero"`
	Persistent *PersistentFault `json:"persistent,omitempty"`

	// Run limits (zero = unlimited).
	MaxInsts  uint64 `json:"max_insts,omitempty"`
	MaxCycles uint64 `json:"max_cycles,omitempty"`

	Pipeline   PipelineConfig   `json:"pipeline"`
	Memory     MemoryConfig     `json:"memory"`
	BranchPred BranchPredConfig `json:"branch_pred,omitzero"`
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
	if c.Pipeline == (PipelineConfig{}) || c.Memory == (MemoryConfig{}) {
		base := cpu.Baseline()
		if c.Model == ModelStatic2 {
			base = cpu.Halved()
		}
		if c.Pipeline == (PipelineConfig{}) {
			c.Pipeline = PipelineConfig{
				FetchWidth:      base.FetchWidth,
				FetchQueue:      base.FetchQueue,
				RedirectPenalty: base.RedirectPenalty,
				DispatchWidth:   base.DispatchWidth,
				IssueWidth:      base.IssueWidth,
				CommitWidth:     base.CommitWidth,
				RUUSize:         base.RUUSize,
				LSQSize:         base.LSQSize,
				IntALU:          base.IntALU,
				IntMult:         base.IntMult,
				FPAdd:           base.FPAdd,
				FPMult:          base.FPMult,
				MemPorts:        base.MemPorts,
			}
		}
		if c.Memory == (MemoryConfig{}) {
			c.Memory = MemoryConfig{
				IL1:     fromCache(base.Hierarchy.IL1),
				DL1:     fromCache(base.Hierarchy.DL1),
				L2:      fromCache(base.Hierarchy.L2),
				Latency: base.Hierarchy.MemLatency,
			}
		}
	}
	if c.BranchPred == (BranchPredConfig{}) {
		c.BranchPred = fromBpred(bpred.Default())
	}
	if c.Majority && c.MajorityThreshold == 0 {
		c.MajorityThreshold = c.R/2 + 1
	}
	if c.Fault.Enabled() && len(c.Fault.Targets) == 0 {
		c.Fault.Targets = []FaultTarget{FaultResult}
	}
	if c.Name == "" {
		c.Name = modelDisplayName(c.Model, c.R)
	}
	return c
}

func modelDisplayName(m Model, r int) string {
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

// Validate checks the configuration and returns nil or an errors.Join
// of one *ConfigError per problem (each satisfying
// errors.Is(err, ErrInvalidConfig)).
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
	if c.MajorityThreshold < 0 || c.MajorityThreshold > c.R {
		bad("majority_threshold", fmt.Sprintf("threshold %d outside [0, R=%d]", c.MajorityThreshold, c.R), nil)
	}
	if c.RecoveryPenalty < 0 {
		bad("recovery_penalty", "must be >= 0", nil)
	}

	if c.Fault.Rate < 0 || c.Fault.Rate > 1 {
		bad("fault.rate", fmt.Sprintf("rate %g is not a probability in [0, 1]", c.Fault.Rate), nil)
	}
	for _, t := range c.Fault.Targets {
		if _, err := t.target(); err != nil {
			bad("fault.targets", err.Error(), nil)
		}
	}
	if c.Persistent != nil {
		if _, err := poolByName(c.Persistent.Pool); err != nil {
			bad("persistent.pool", err.Error(), nil)
		}
		if c.Persistent.Bit > 63 {
			bad("persistent.bit", fmt.Sprintf("bit %d outside [0, 63]", c.Persistent.Bit), nil)
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

	caches := []struct {
		name string
		c    CacheConfig
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

	switch bpred.Kind(c.BranchPred.Kind) {
	case "", bpred.KindCombined, bpred.KindBimodal, bpred.KindTwoLevel, bpred.KindTaken, bpred.KindNotTaken:
	default:
		bad("branch_pred.kind", fmt.Sprintf("unknown predictor kind %q", c.BranchPred.Kind), nil)
	}

	return errors.Join(errs...)
}

// ParseConfig deserializes a Config from JSON, rejecting unknown fields
// (a typo in a persisted machine description must not silently fall
// back to a default), then normalizes and validates it.
func ParseConfig(data []byte) (Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	c = c.Normalized()
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// JSON serializes the configuration, indented, with a trailing newline —
// the exact bytes ParseConfig accepts and the golden files under
// testdata/ pin for the paper's machine models.
func (c Config) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ---------------------------------------------------------------------
// Conversions between the public serializable types and the internal
// implementation configuration.

func (t FaultTarget) target() (fault.Target, error) {
	switch t {
	case FaultResult:
		return fault.TargetResult, nil
	case FaultAddress:
		return fault.TargetAddress, nil
	case FaultResident:
		return fault.TargetResident, nil
	case FaultBranch:
		return fault.TargetBranch, nil
	}
	return 0, fmt.Errorf("unknown fault target %q", string(t))
}

func poolByName(name string) (isa.Pool, error) {
	switch name {
	case "int-alu":
		return isa.PoolIntALU, nil
	case "int-mult":
		return isa.PoolIntMult, nil
	case "fp-add":
		return isa.PoolFPAdd, nil
	case "fp-mult":
		return isa.PoolFPMult, nil
	case "mem-port":
		return isa.PoolMemPort, nil
	}
	return isa.PoolNone, fmt.Errorf("unknown functional-unit pool %q", name)
}

func fromCache(c cache.Config) CacheConfig {
	return CacheConfig{SizeBytes: c.SizeBytes, Ways: c.Ways, LineBytes: c.LineBytes, HitLatency: c.HitLatency}
}

func (c CacheConfig) toCache(name string) cache.Config {
	return cache.Config{Name: name, SizeBytes: c.SizeBytes, Ways: c.Ways, LineBytes: c.LineBytes, HitLatency: c.HitLatency}
}

func fromBpred(b bpred.Config) BranchPredConfig {
	return BranchPredConfig{
		Kind: string(b.Kind), BimodalSize: b.BimodalSize, L1Size: b.L1Size,
		HistBits: b.HistBits, L2Size: b.L2Size, XOR: b.XOR, MetaSize: b.MetaSize,
		BTBSets: b.BTBSets, BTBWays: b.BTBWays, RASSize: b.RASSize,
	}
}

func (b BranchPredConfig) toBpred() bpred.Config {
	return bpred.Config{
		Kind: bpred.Kind(b.Kind), BimodalSize: b.BimodalSize, L1Size: b.L1Size,
		HistBits: b.HistBits, L2Size: b.L2Size, XOR: b.XOR, MetaSize: b.MetaSize,
		BTBSets: b.BTBSets, BTBWays: b.BTBWays, RASSize: b.RASSize,
	}
}
