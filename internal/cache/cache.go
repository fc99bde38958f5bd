// Package cache models the simulated machine's memory hierarchy for
// timing purposes: separate L1 instruction and data caches backed by a
// unified L2, per the paper's Table 1 (64 KB 2-way IL1, 32 KB 2-way DL1
// with 2 R/W ports, 512 KB 4-way unified L2).
//
// Caches here carry no data — values always come from the functional
// memory, which is ECC-protected in the paper's fault model — only tags,
// LRU state and dirty bits, from which access latencies are derived.
// Dirty evictions are written back through a write buffer and are not
// charged on the access's critical path.
package cache

import "fmt"

// Config is one cache level's geometry and hit latency.
type Config struct {
	SizeBytes  int `json:"size_bytes"`
	Ways       int `json:"ways"`
	LineBytes  int `json:"line_bytes"`
	HitLatency int `json:"hit_latency"`
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// String renders the geometry, e.g. "64KB 2-way 32B-line (1-cycle hit)".
func (c Config) String() string {
	return fmt.Sprintf("%dKB %d-way %dB-line (%d-cycle hit)",
		c.SizeBytes/1024, c.Ways, c.LineBytes, c.HitLatency)
}

// Stats counts accesses for one cache level.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

// Cache is one level of the hierarchy. The zero value is unusable; use
// NewCache.
//
// Line state lives in one flat set-major slab rather than a slice per
// set: a Table 1 hierarchy has thousands of sets, and per-set slices
// cost one allocation each per machine build — the second-largest
// allocation source in the campaign hot path before the slab.
type Cache struct {
	name  string
	cfg   Config
	lines []line // nsets * Ways, set-major
	nsets int
	age   uint64
	next  *Cache // nil means the next level is memory
	memLa int    // memory latency when next == nil

	Stats Stats
}

// NewCache builds a cache named name (for diagnostics); next is the
// level below (nil = main memory with the given latency).
func NewCache(name string, cfg Config, next *Cache, memLatency int) *Cache {
	if cfg.Sets() <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", name, cfg))
	}
	nsets := cfg.Sets()
	return &Cache{name: name, cfg: cfg, lines: make([]line, nsets*cfg.Ways), nsets: nsets, next: next, memLa: memLatency}
}

// set returns the ways of one set as a slice into the slab.
func (c *Cache) set(setIdx uint64) []line {
	i := int(setIdx) * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways]
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Access simulates a read (write=false) or write (write=true) of the line
// containing addr and returns the access latency in cycles. Writes
// allocate on miss (write-allocate, write-back).
func (c *Cache) Access(addr uint64, write bool) int {
	c.Stats.Accesses++
	lineAddr := addr / uint64(c.cfg.LineBytes)
	setIdx := lineAddr % uint64(c.nsets)
	tag := lineAddr / uint64(c.nsets)
	set := c.set(setIdx)
	c.age++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.age
			if write {
				set[i].dirty = true
			}
			return c.cfg.HitLatency
		}
	}
	// Miss: fetch the line from below, evicting the LRU way.
	c.Stats.Misses++
	below := c.memLa
	if c.next != nil {
		below = c.next.Access(addr, false)
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.Stats.Writebacks++
		if c.next != nil {
			// The writeback goes through a write buffer; model its
			// effect on lower-level state but not on this access's
			// latency.
			victimAddr := (set[victim].tag*uint64(c.nsets) + setIdx) * uint64(c.cfg.LineBytes)
			c.next.Access(victimAddr, true)
		}
	}
	set[victim] = line{valid: true, dirty: write, tag: tag, lru: c.age}
	return c.cfg.HitLatency + below
}

// Flush invalidates all lines (used between experiment repetitions).
func (c *Cache) Flush() {
	clear(c.lines)
}

// Reset restores the cache to its just-built state in place: all lines
// invalid, LRU clock and statistics zeroed. A reset cache is
// indistinguishable from a fresh NewCache with the same geometry.
func (c *Cache) Reset() {
	clear(c.lines)
	c.age = 0
	c.Stats = Stats{}
}

// HierarchyConfig is the Table 1 memory hierarchy: split L1s over a
// unified L2 over flat-latency main memory.
type HierarchyConfig struct {
	IL1     Config `json:"il1"`
	DL1     Config `json:"dl1"`
	L2      Config `json:"l2"`
	Latency int    `json:"latency"` // main-memory access cycles
}

// DefaultHierarchy returns the Table 1 configuration.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		IL1:     Config{SizeBytes: 64 * 1024, Ways: 2, LineBytes: 32, HitLatency: 1},
		DL1:     Config{SizeBytes: 32 * 1024, Ways: 2, LineBytes: 32, HitLatency: 1},
		L2:      Config{SizeBytes: 512 * 1024, Ways: 4, LineBytes: 64, HitLatency: 6},
		Latency: 40,
	}
}

// Hierarchy is the assembled two-level hierarchy.
type Hierarchy struct {
	IL1, DL1, L2 *Cache
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	l2 := NewCache("ul2", cfg.L2, nil, cfg.Latency)
	return &Hierarchy{
		IL1: NewCache("il1", cfg.IL1, l2, 0),
		DL1: NewCache("dl1", cfg.DL1, l2, 0),
		L2:  l2,
	}
}

// Renew returns a hierarchy for cfg, reusing h's line slabs when every
// level's geometry matches (the common case when machines are pooled
// across trials of one experiment grid); otherwise it builds fresh. A
// reused hierarchy is fully reset and behaves identically to a new one.
func Renew(h *Hierarchy, cfg HierarchyConfig) *Hierarchy {
	if h == nil ||
		h.IL1.cfg != cfg.IL1 || h.DL1.cfg != cfg.DL1 || h.L2.cfg != cfg.L2 ||
		h.L2.memLa != cfg.Latency {
		return NewHierarchy(cfg)
	}
	h.IL1.Reset()
	h.DL1.Reset()
	h.L2.Reset()
	return h
}

// IFetch returns the latency of an instruction fetch at addr.
func (h *Hierarchy) IFetch(addr uint64) int { return h.IL1.Access(addr, false) }

// DAccess returns the latency of a data access at addr.
func (h *Hierarchy) DAccess(addr uint64, write bool) int { return h.DL1.Access(addr, write) }
