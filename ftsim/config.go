package ftsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/isa"
)

// Config is a complete, JSON-serializable description of one
// fault-tolerant machine plus its run limits. Marshal it with JSON to
// persist the exact machine a campaign ran; ParseConfig restores it.
// The zero value is not runnable — start from a preset (Model.Config)
// or call Normalized to fill Table 1 defaults.
//
// It is the datapath's own configuration, re-exported with its section
// types below: the facade adds no mirror types, so a Config is exactly
// what the simulator runs. Field paths (cfg.Pipeline.RUUSize,
// cfg.Memory.DL1.Ways, cfg.Fault.Targets) and the JSON wire shape are
// documented on the aliased types.
type Config = cpu.Config

type (
	// Model names one of the paper's machine designs; Model.Config
	// returns its full configuration.
	Model = cpu.Model
	// PipelineConfig sizes the out-of-order datapath: front end, window
	// and the Table 1 functional-unit mix.
	PipelineConfig = cpu.Pipeline
	// MemoryConfig is the Table 1 cache hierarchy: split L1s over a
	// unified L2 over flat-latency main memory.
	MemoryConfig = cache.HierarchyConfig
	// CacheConfig is one cache level's geometry and hit latency.
	CacheConfig = cache.Config
	// BranchPredConfig describes the branch predictor. A zero value
	// takes the Table 1 combined predictor.
	BranchPredConfig = bpred.Config
	// FaultConfig parameterises transient-fault injection.
	FaultConfig = fault.Config
	// FaultTarget selects which speculative value transient faults
	// corrupt. It serializes as result, address, resident or branch.
	FaultTarget = fault.Target
	// PersistentFault models a hard stuck-at-1 bit in the bitwise-logic
	// slice of one physical functional unit (Section 2.2).
	PersistentFault = fault.Persistent
	// FUPool names a functional-unit pool, for PersistentFault. It
	// serializes as int-alu, int-mult, fp-add, fp-mult or mem-port.
	FUPool = isa.Pool
)

// The paper's machine models.
const (
	ModelSS1       = cpu.ModelSS1
	ModelSS2       = cpu.ModelSS2
	ModelSS3       = cpu.ModelSS3
	ModelSS3Rewind = cpu.ModelSS3Rewind
	ModelStatic2   = cpu.ModelStatic2
)

// The fault injection points.
const (
	FaultResult   = fault.TargetResult   // computed result at writeback
	FaultAddress  = fault.TargetAddress  // memory effective address
	FaultResident = fault.TargetResident // completed result waiting in the ROB
	FaultBranch   = fault.TargetBranch   // control-flow outcome (next-PC)
)

// The functional-unit pools a PersistentFault can damage.
const (
	PoolIntALU  = isa.PoolIntALU
	PoolIntMult = isa.PoolIntMult
	PoolFPAdd   = isa.PoolFPAdd
	PoolFPMult  = isa.PoolFPMult
	PoolMemPort = isa.PoolMemPort
)

// Models lists the machine models in the paper's order.
func Models() []Model { return cpu.Models() }

// AllFaultTargets lists every injection point.
func AllFaultTargets() []FaultTarget { return slices.Clone(fault.AllTargets) }

// ParseConfig deserializes a Config from JSON, rejecting unknown fields
// and names (a typo in a persisted machine description must not
// silently fall back to a default), then normalizes and validates it.
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
