package cache

import "repro/internal/snap"

// Snapshot transfers one cache level's complete timing state — line
// tags, valid and dirty bits, LRU stamps, the LRU clock and statistics
// — through sc. Geometry is not stored; the caller guarantees (via a
// config fingerprint) that a snapshot is only applied to a cache of
// identical geometry, and decoding re-checks the line count.
func (c *Cache) Snapshot(sc snap.Codec) {
	if sc.Count("cache "+c.name+" lines", len(c.lines)) {
		for i := range c.lines {
			l := &c.lines[i]
			sc.Bool(&l.valid)
			sc.Bool(&l.dirty)
			sc.U64(&l.tag, &l.lru)
		}
	}
	sc.U64(&c.age)
	c.Stats.Snapshot(sc)
}

// Snapshot transfers the counters in declaration order.
func (s *Stats) Snapshot(sc snap.Codec) { sc.U64(&s.Accesses, &s.Misses, &s.Writebacks) }

// Snapshot transfers all three levels (L2 once, although IL1 and DL1
// share it).
func (h *Hierarchy) Snapshot(sc snap.Codec) {
	h.IL1.Snapshot(sc)
	h.DL1.Snapshot(sc)
	h.L2.Snapshot(sc)
}
