package cache

import "testing"

func smallCache(next *Cache, memLat int) *Cache {
	// 4 sets x 2 ways x 16B lines = 128 bytes.
	return NewCache("t", Config{SizeBytes: 128, Ways: 2, LineBytes: 16, HitLatency: 1}, next, memLat)
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(nil, 10)
	if lat := c.Access(0x100, false); lat != 11 {
		t.Errorf("cold miss latency = %d, want 11", lat)
	}
	if lat := c.Access(0x100, false); lat != 1 {
		t.Errorf("hit latency = %d, want 1", lat)
	}
	if lat := c.Access(0x10F, false); lat != 1 {
		t.Errorf("same-line hit latency = %d, want 1", lat)
	}
	if lat := c.Access(0x110, false); lat != 11 {
		t.Errorf("next-line miss latency = %d, want 11", lat)
	}
	if c.Stats.Accesses != 4 || c.Stats.Misses != 2 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if got := c.Stats.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := smallCache(nil, 10)
	// Three lines mapping to set 0 (line size 16, 4 sets: stride 64).
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent
	c.Access(d, false) // evicts b
	if lat := c.Access(a, false); lat != 1 {
		t.Errorf("a evicted (latency %d)", lat)
	}
	if lat := c.Access(b, false); lat != 11 {
		t.Errorf("b not evicted (latency %d)", lat)
	}
}

func TestDirtyWriteback(t *testing.T) {
	l2 := smallCache(nil, 10)
	l1 := NewCache("l1", Config{SizeBytes: 32, Ways: 1, LineBytes: 16, HitLatency: 1}, l2, 0)
	// Write to a line, then conflict-evict it.
	l1.Access(0x00, true)  // set 0, dirty
	l1.Access(0x20, false) // set 0, evicts dirty line
	if l1.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", l1.Stats.Writebacks)
	}
	// Clean eviction: no writeback.
	l1.Access(0x40, false)
	if l1.Stats.Writebacks != 1 {
		t.Errorf("clean eviction triggered writeback")
	}
}

func TestTwoLevelLatency(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{
		IL1:     Config{SizeBytes: 128, Ways: 2, LineBytes: 16, HitLatency: 1},
		DL1:     Config{SizeBytes: 128, Ways: 2, LineBytes: 16, HitLatency: 1},
		L2:      Config{SizeBytes: 1024, Ways: 4, LineBytes: 32, HitLatency: 6},
		Latency: 40,
	})
	// Cold: DL1 miss -> L2 miss -> memory.
	if lat := h.DAccess(0x1000, false); lat != 1+6+40 {
		t.Errorf("cold access latency = %d, want 47", lat)
	}
	// DL1 hit.
	if lat := h.DAccess(0x1000, false); lat != 1 {
		t.Errorf("dl1 hit latency = %d, want 1", lat)
	}
	// IL1 miss on a line already in L2? Different line: cold.
	if lat := h.IFetch(0x1000); lat != 1+6 {
		t.Errorf("ifetch latency with L2 hit = %d, want 7", lat)
	}
}

func TestUnifiedL2Shared(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	h.DAccess(0x8000, false)
	before := h.L2.Stats.Misses
	h.IFetch(0x8000) // same line: should hit in L2 (unified)
	if h.L2.Stats.Misses != before {
		t.Error("instruction fetch missed in L2 after data access warmed it")
	}
}

func TestDefaultHierarchyGeometry(t *testing.T) {
	cfg := DefaultHierarchy()
	if got := cfg.IL1.Sets(); got != 1024 {
		t.Errorf("IL1 sets = %d, want 1024", got)
	}
	if got := cfg.DL1.Sets(); got != 512 {
		t.Errorf("DL1 sets = %d, want 512", got)
	}
	if got := cfg.L2.Sets(); got != 2048 {
		t.Errorf("L2 sets = %d, want 2048", got)
	}
}

func TestFlush(t *testing.T) {
	c := smallCache(nil, 10)
	c.Access(0x100, false)
	c.Flush()
	if lat := c.Access(0x100, false); lat != 11 {
		t.Errorf("access after flush hit (latency %d)", lat)
	}
}

func TestWriteAllocate(t *testing.T) {
	c := smallCache(nil, 10)
	if lat := c.Access(0x40, true); lat != 11 {
		t.Errorf("write miss latency = %d, want 11", lat)
	}
	if lat := c.Access(0x40, false); lat != 1 {
		t.Errorf("read after write-allocate missed (latency %d)", lat)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry did not panic")
		}
	}()
	NewCache("bad", Config{SizeBytes: 8, Ways: 2, LineBytes: 16, HitLatency: 1}, nil, 10)
}

func TestConfigString(t *testing.T) {
	if s, want := DefaultHierarchy().IL1.String(), "64KB 2-way 32B-line (1-cycle hit)"; s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
}
