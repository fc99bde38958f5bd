package cpu

import "repro/internal/isa"

// fuPool models one class of functional units: a fixed number of physical
// instances, each either pipelined (accepts one issue per cycle) or
// unpipelined (busy for the whole operation latency, as Table 1 specifies
// for dividers).
type fuPool struct {
	pool isa.Pool
	// busyUntil[i] is the first cycle instance i can accept a new
	// operation.
	busyUntil []uint64
}

func newFUPool(pool isa.Pool, n int) *fuPool {
	return &fuPool{pool: pool, busyUntil: make([]uint64, n)}
}

// tryIssue reserves an instance for an operation issued at cycle now.
// prefer, when >= 0, asks for a specific instance first (co-scheduling of
// redundant copies on distinct hardware); if that instance is busy any
// free instance is used. It returns the instance index or -1 if the pool
// is fully busy this cycle. The issue stage calls this once per
// candidate per cycle, so the scan over instances (at most a handful,
// Table 1) is the whole cost; callers pass prefer already reduced into
// range.
func (p *fuPool) tryIssue(now uint64, latency int, pipelined bool, prefer int) int {
	pick := -1
	if prefer >= 0 && p.busyUntil[prefer] <= now {
		pick = prefer
	}
	if pick < 0 {
		for i := range p.busyUntil {
			if p.busyUntil[i] <= now {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return -1
	}
	if pipelined {
		// A pipelined unit accepts one new operation per cycle.
		p.busyUntil[pick] = now + 1
	} else {
		p.busyUntil[pick] = now + uint64(latency)
	}
	return pick
}

// anyFree reports whether some instance can accept an operation at
// cycle now. When it is false every tryIssue this cycle fails, whatever
// instance it prefers.
func (p *fuPool) anyFree(now uint64) bool {
	for _, b := range p.busyUntil {
		if b <= now {
			return true
		}
	}
	return false
}

// units returns the number of physical instances.
func (p *fuPool) units() int { return len(p.busyUntil) }

// fuSet is the machine's full complement of functional units, indexed by
// pool.
type fuSet struct {
	pools [isa.NumPools]*fuPool
}

func newFUSet(cfg *Config) *fuSet {
	var s fuSet
	s.pools[isa.PoolIntALU] = newFUPool(isa.PoolIntALU, cfg.IntALU)
	s.pools[isa.PoolIntMult] = newFUPool(isa.PoolIntMult, cfg.IntMult)
	s.pools[isa.PoolFPAdd] = newFUPool(isa.PoolFPAdd, cfg.FPAdd)
	s.pools[isa.PoolFPMult] = newFUPool(isa.PoolFPMult, cfg.FPMult)
	s.pools[isa.PoolMemPort] = newFUPool(isa.PoolMemPort, cfg.MemPorts)
	return &s
}

// get returns the pool for p, or nil for PoolNone.
func (s *fuSet) get(p isa.Pool) *fuPool { return s.pools[p] }

// fullMask returns the set of pools, bit p for pool p, that have no
// free unit at cycle now. Pipelined units free up every cycle, so only
// a busy unpipelined unit can put a pool here at the start of a cycle.
func (s *fuSet) fullMask(now uint64) uint8 {
	var full uint8
	for p, pool := range s.pools {
		if pool != nil && !pool.anyFree(now) {
			full |= 1 << p
		}
	}
	return full
}

// matches reports whether the set's unit counts equal cfg's, in which
// case reset can reuse it instead of rebuilding.
func (s *fuSet) matches(cfg *Config) bool {
	return s.pools[isa.PoolIntALU].units() == cfg.IntALU &&
		s.pools[isa.PoolIntMult].units() == cfg.IntMult &&
		s.pools[isa.PoolFPAdd].units() == cfg.FPAdd &&
		s.pools[isa.PoolFPMult].units() == cfg.FPMult &&
		s.pools[isa.PoolMemPort].units() == cfg.MemPorts
}

// reset frees every unit (as-new: nothing busy before cycle 0).
func (s *fuSet) reset() {
	for _, p := range s.pools {
		if p != nil {
			clear(p.busyUntil)
		}
	}
}
