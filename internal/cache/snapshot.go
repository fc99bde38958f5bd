package cache

import "repro/internal/snap"

// EncodeSnapshot appends one cache level's complete timing state —
// line tags/valid/dirty/LRU, the LRU clock and statistics — to w.
// Geometry is not encoded; the caller guarantees (via a config
// fingerprint) that the snapshot is only applied to a cache of
// identical geometry, and the line count is re-validated on decode.
func (c *Cache) EncodeSnapshot(w *snap.Writer) {
	w.U32(uint32(len(c.lines)))
	for i := range c.lines {
		l := &c.lines[i]
		w.Bool(l.valid)
		w.Bool(l.dirty)
		w.U64(l.tag)
		w.U64(l.lru)
	}
	w.U64(c.age)
	w.U64(c.Stats.Accesses)
	w.U64(c.Stats.Misses)
	w.U64(c.Stats.Writebacks)
}

// DecodeSnapshot restores state written by EncodeSnapshot in place. A
// line count that disagrees with the cache's geometry marks the
// reader corrupt; the caller checks r.Done() and discards the machine
// on failure.
func (c *Cache) DecodeSnapshot(r *snap.Reader) {
	if n := int(r.U32()); n == len(c.lines) {
		for i := range c.lines {
			l := &c.lines[i]
			l.valid = r.Bool()
			l.dirty = r.Bool()
			l.tag = r.U64()
			l.lru = r.U64()
		}
	} else {
		r.Corruptf("cache %s: %d lines in snapshot, want %d", c.name, n, len(c.lines))
	}
	c.age = r.U64()
	c.Stats.Accesses = r.U64()
	c.Stats.Misses = r.U64()
	c.Stats.Writebacks = r.U64()
}

// EncodeSnapshot writes all three levels (L2 once, although IL1 and
// DL1 share it).
func (h *Hierarchy) EncodeSnapshot(w *snap.Writer) {
	h.IL1.EncodeSnapshot(w)
	h.DL1.EncodeSnapshot(w)
	h.L2.EncodeSnapshot(w)
}

// DecodeSnapshot restores all three levels.
func (h *Hierarchy) DecodeSnapshot(r *snap.Reader) {
	h.IL1.DecodeSnapshot(r)
	h.DL1.DecodeSnapshot(r)
	h.L2.DecodeSnapshot(r)
}
