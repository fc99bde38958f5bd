package ftsim

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cpu"
)

// MachinePool recycles the internal simulator machines that back runs,
// so a campaign of thousands of short trials stops paying the full
// machine construction cost (entry slabs, cache line arrays, predictor
// tables, memory pages, injector RNG state) per trial. The zero value
// is ready to use. A pool is safe for concurrent use by any number of
// goroutines; it may hold machines of different configurations — a
// checked-out machine is reset to the requesting run's configuration,
// reusing whatever of its storage still fits.
//
// Pooling is invisible in the results: a run on a recycled machine is
// bit-identical to the same run on a fresh one (the pooled-vs-fresh
// equivalence suite asserts full Stats equality). Sessions created by
// Load never touch a pool, so the single-use Session semantics are
// unchanged.
type MachinePool struct {
	pool sync.Pool // holds *cpu.Machine
}

func (p *MachinePool) get() *cpu.Machine {
	if v := p.pool.Get(); v != nil {
		return v.(*cpu.Machine)
	}
	return nil
}

func (p *MachinePool) put(m *cpu.Machine) {
	if m != nil {
		p.pool.Put(m)
	}
}

// RunPooled is Run backed by a machine pool: the simulation runs on a
// recycled machine when one is available (resetting it in place) and on
// a fresh one otherwise, and the machine is returned to the pool
// afterwards — including after cancellation or simulation errors, since
// reset fully sanitises in-flight state. The returned Stats is a
// snapshot owned by the caller, never aliased to pooled machine state.
func (m *Machine) RunPooled(ctx context.Context, pool *MachinePool, p *Program) (*Stats, error) {
	s, cfg, err := m.newSession()
	if err != nil {
		return nil, err
	}
	recycled := pool.get()
	cm := recycled
	if cm == nil {
		cm = new(cpu.Machine) // Reset of the zero Machine is cpu.New
	}
	if err := cm.Reset(cfg, p.p); err != nil {
		// Reset validates before mutating, so a recycled machine is
		// still intact; keep it pooled.
		pool.put(recycled)
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	s.cm = cm
	st, err := s.Run(ctx)
	out := *st
	pool.put(cm)
	return &out, err
}
