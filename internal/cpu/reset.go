package cpu

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
)

// watchCap pre-sizes each per-producer wait-list. Most producers have a
// handful of direct consumers in flight at once; a list that outgrows
// its slab section is re-homed by append once and keeps the larger
// capacity for the machine's lifetime.
const watchCap = 8

// Reset re-initialises the machine in place for a fresh run of program
// p under cfg, reusing every allocation whose geometry still fits:
// the RUU/LSQ entry slabs, wait-lists, ready set, completion
// calendar, decode cache, fetch ring, functional units, cache line
// slabs, branch predictor tables and memory pages. Structures whose
// geometry changed (for example a different RUU size) are rebuilt.
//
// The reset invariant: a machine after Reset is indistinguishable from
// one just built by New with the same arguments — New itself is Reset
// applied to the zero Machine, so the two states come from one code
// path. The only differences are invisible ones: retained slice
// capacity, retained (zeroed) memory pages, and the fault injector's
// RNG object identity (reseeding reproduces the identical stream).
// TestResetMatchesFresh and the ftsim pooled-equivalence suite are the
// referees.
//
// Reset fully sanitises dirty state, so it is safe after a cancelled or
// deadlocked run that left instructions in flight.
func (m *Machine) Reset(cfg Config, p *prog.Program) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.resetHardware(cfg)

	// Program image and front end.
	entry := p.LoadInto(m.mem)
	m.regs[isa.RegSP] = prog.StackTop
	m.nextPC.Set(entry)
	m.fetchPC = entry

	if cfg.Oracle {
		m.oracle = funcsim.NewWithMemory(m.mem.Clone(), entry)
		m.oracleLive = true
	} else {
		m.oracle = nil
		m.oracleLive = false
	}
	return nil
}

// resetHardware re-initialises everything except the program image:
// committed state is zeroed, speculative machinery and run counters
// are reset, slabs are reused where the geometry fits. It is the part
// of Reset shared with Restore, which overwrites the zeroed committed
// state from a snapshot instead of loading a program. cfg must
// already be validated. It is also the one place the redundancy rules
// are applied: the RUU is rounded down to a multiple of R and the
// checker is chosen from R and Majority. The majority checker's scratch
// and the injector's RNG storage are reused (fault.Renew reseeds the
// identical stream).
func (m *Machine) resetHardware(cfg Config) {
	cfg.RUUSize = cfg.ruuSize()
	m.cfg = cfg
	switch {
	case cfg.R == 1:
		m.checker = nil
	case cfg.Majority:
		m.majority.R, m.majority.Threshold = cfg.R, cfg.MajorityThreshold
		m.checker = &m.majority
	default:
		m.checker = RewindChecker{}
	}
	m.injector = fault.Renew(m.injector, cfg.Fault)

	// Committed architectural state.
	m.regs = [isa.NumRegs]uint64{}
	m.nextPC = ecc.Reg{}
	if m.mem == nil {
		m.mem = mem.New()
	} else {
		m.mem.Reset()
	}

	// Speculative machinery: reuse slabs when the storage size matches
	// (the architectural limit may differ — e.g. RUU 126 for R=3 vs 128
	// for R=2 share one 128-slot ring).
	if m.ruu == nil || m.ruu.size() != nextPow2(cfg.RUUSize) {
		m.ruu = newRUU(cfg.RUUSize)
	} else {
		m.ruu.reset(cfg.RUUSize)
	}
	if m.lsq == nil || len(m.lsq.entries) != nextPow2(cfg.LSQSize) {
		m.lsq = newLSQ(cfg.LSQSize)
	} else {
		m.lsq.reset(cfg.LSQSize)
	}
	if m.fus == nil || !m.fus.matches(&m.cfg) {
		m.fus = newFUSet(&m.cfg)
	} else {
		m.fus.reset()
	}
	m.bp = bpred.Renew(m.bp, cfg.Bpred)
	m.caches = cache.Renew(m.caches, cfg.Hierarchy)
	m.mapTable = [isa.NumRegs]mapRef{}

	// Event-scheduling state, pre-sized so steady-state pushes never
	// allocate. A machine the scan-based reference scheduler was
	// installed on (test files only) comes back to the event kernel.
	storage := m.ruu.size()
	if m.issueFn == nil || !m.eventSched {
		m.eventSched = true
		m.issueFn = m.issueEvent
		m.writebackFn = m.writebackEvent
	}
	if len(m.waitlists) != storage {
		slab := make([]waiter, storage*watchCap)
		m.waitlists = make([][]waiter, storage)
		for i := range m.waitlists {
			m.waitlists[i] = slab[i*watchCap : i*watchCap : (i+1)*watchCap]
		}
	} else {
		for i := range m.waitlists {
			m.waitlists[i] = m.waitlists[i][:0]
		}
	}
	m.ready.init(storage)
	m.cal.init()
	if m.dec == nil {
		m.dec = new(decCache)
	} else {
		m.dec.reset()
	}
	if cap(m.commitGroup) < cfg.R {
		m.commitGroup = make([]*Entry, 0, cfg.R)
	} else {
		// Zero stale entry pointers so the scratch cannot pin a
		// replaced RUU slab.
		cg := m.commitGroup[:cap(m.commitGroup)]
		clear(cg)
		m.commitGroup = cg[:0]
	}

	// Front end and run counters.
	m.fetchPC = 0
	m.fetchQ = m.fetchQ.renew(cfg.FetchQueue)
	m.stallUntil = 0
	m.fetchHalt = false

	m.cycle, m.seq, m.gid = 0, 0, 0
	m.halted, m.stopped = false, false
	m.pendingRecovery = false
	m.recoveryStart = 0
	m.lastCommitCycle = 0
	m.stats = Stats{}
	m.oracle = nil
	m.oracleLive = false
}
