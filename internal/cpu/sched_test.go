package cpu

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// Completion calendar.

func TestCalendarWheelAndFar(t *testing.T) {
	var c calendar
	// Near events go to the wheel, far ones to the heap; both surface at
	// the right cycle, sorted by seq.
	c.insert(100, 102, 7, 50)
	c.insert(100, 102, 3, 10)
	c.insert(100, 100+wheelSize+5, 1, 30) // far
	c.insert(100, 100+wheelSize+5, 2, 20) // far

	if got := c.drain(101); len(got) != 0 {
		t.Fatalf("cycle 101: drained %v, want none", got)
	}
	got := c.drain(102)
	if len(got) != 2 || got[0].seq != 10 || got[1].seq != 50 {
		t.Fatalf("cycle 102: drained %v, want seqs [10 50]", got)
	}
	far := c.drain(100 + wheelSize + 5)
	if len(far) != 2 || far[0].seq != 20 || far[1].seq != 30 {
		t.Fatalf("far cycle: drained %v, want seqs [20 30]", far)
	}
	if len(c.far) != 0 {
		t.Fatalf("far heap not drained: %v", c.far)
	}
}

func TestCalendarSeqSortMixedLatency(t *testing.T) {
	var c calendar
	// A long-latency old entry and short-latency young entries land on
	// the same cycle out of insertion order; drain must return seq order.
	c.insert(10, 30, 1, 100) // issued early, 20-cycle op
	c.insert(29, 30, 2, 900) // issued late, 1-cycle op
	c.insert(29, 30, 3, 500)
	got := c.drain(30)
	if len(got) != 3 || got[0].seq != 100 || got[1].seq != 500 || got[2].seq != 900 {
		t.Fatalf("drained %v, want seqs [100 500 900]", got)
	}
}

// ---------------------------------------------------------------------
// Ready set.

// issueHarness is a machine driven stage by stage: instructions are
// pushed straight into the fetch queue, so a test controls exactly
// which RUU slots they land in and which stages run.
type issueHarness struct {
	t   *testing.T
	m   *Machine
	buf *trace.Buffer
	pc  uint64
}

func newIssueHarness(t *testing.T, cfg Config, head int) *issueHarness {
	t.Helper()
	buf := trace.NewBuffer(256)
	cfg.Tracer = buf
	b := prog.NewBuilder("harness")
	b.Halt()
	m, err := New(cfg, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	m.ruu.head, m.ruu.tail = head, head
	m.cycle = 1
	return &issueHarness{t: t, m: m, buf: buf, pc: prog.TextBase}
}

// dispatch feeds the instructions through the dispatch stage.
func (h *issueHarness) dispatch(ins ...isa.Inst) {
	for _, in := range ins {
		h.m.fetchQ.push(fetchedInst{pc: h.pc, inst: in, oi: in.Info(), predNext: h.pc + isa.InstBytes})
		h.pc += isa.InstBytes
	}
	for !h.m.fetchQ.empty() {
		h.m.dispatch()
	}
}

// issued returns the seqs of the issue events recorded at cycle c, in
// issue order.
func (h *issueHarness) issued(c uint64) []uint64 {
	var seqs []uint64
	for _, e := range h.buf.Events() {
		if e.Stage == trace.StageIssue && e.Cycle == c {
			seqs = append(seqs, e.Seq)
		}
	}
	return seqs
}

func (h *issueHarness) ready(idx, class int) bool {
	return h.m.ready.words[(idx>>6)*classStride+class]&(1<<(idx&63)) != 0
}

// TestReadySetScanOrder pins the issue stage's walk over the ready set:
// oldest first from a head in the second bitmap word, wrapping into the
// first; a saturated pool's class dropped for the rest of the cycle
// while the other classes carry on; and a gated redundant load copy
// parked, then re-queued by its copy 0's completion.
func TestReadySetScanOrder(t *testing.T) {
	t.Run("wrap-and-saturate", func(t *testing.T) {
		// RUU 128 is two words; the head at slot 124 is in word 1, so
		// the ten entries occupy slots 124..127 and 0..5.
		h := newIssueHarness(t, Baseline(), 124)
		mul := func(rd uint8) isa.Inst { return isa.Inst{Op: isa.OpMul, Rd: rd} }
		addi := func(rd uint8) isa.Inst { return isa.Inst{Op: isa.OpAddi, Rd: rd, Imm: 1} }
		h.dispatch(
			mul(1), addi(2), mul(3), mul(4), // slots 124..127, seqs 1..4
			addi(5), mul(6), addi(7), addi(8), addi(9), // slots 0..4, seqs 5..9
			isa.Inst{Op: isa.OpNop}, // slot 5, seq 10
		)
		// Stale bits on empty slots, as a squash leaves them: one in the
		// IntMult class and one in the FPAdd class.
		h.m.ready.add(40, int(isa.PoolIntMult))
		h.m.ready.add(41, int(isa.PoolFPAdd))

		h.m.issueEvent()
		// Two IntMult units: seqs 1 and 3 issue and seq 4 stalls, which
		// drops the class, so seq 6 is never attempted. Four IntALU
		// units: seqs 2, 5, 7 and 8 issue, seq 9 stalls. The nop needs no
		// unit.
		want := []uint64{1, 2, 3, 5, 7, 8, 10}
		if got := h.issued(1); !slices.Equal(got, want) {
			t.Fatalf("issue order %v, want %v", got, want)
		}
		for _, c := range []struct {
			idx, class int
			set        bool
		}{
			{124, int(isa.PoolIntMult), false}, // issued
			{127, int(isa.PoolIntMult), true},  // stalled
			{1, int(isa.PoolIntMult), true},    // skipped
			{4, int(isa.PoolIntALU), true},     // stalled
			{5, int(isa.PoolNone), false},      // issued
			{40, int(isa.PoolIntMult), true},   // class dropped before slot 40
			{41, int(isa.PoolFPAdd), false},    // visited and cleared
		} {
			if got := h.ready(c.idx, c.class); got != c.set {
				t.Errorf("slot %d class %d: bit %v, want %v", c.idx, c.class, got, c.set)
			}
		}

		// Next cycle the units are free again; the stalled entries issue
		// oldest first, the skipped one included.
		h.m.cycle++
		h.m.issueEvent()
		if got, want := h.issued(2), []uint64{4, 6, 9}; !slices.Equal(got, want) {
			t.Fatalf("cycle 2 issue order %v, want %v", got, want)
		}
	})

	t.Run("gated-load-copy", func(t *testing.T) {
		// R=2 on an RUU of 16, smaller than one word: the load's two
		// copies sit at slots 15 and 0.
		cfg := Baseline()
		cfg.R, cfg.RUUSize, cfg.LSQSize = 2, 16, 8
		h := newIssueHarness(t, cfg, 15)
		h.dispatch(isa.Inst{Op: isa.OpLd, Rd: 1, Imm: 0x1000})
		c0 := h.m.ruu.at(15)

		h.m.issueEvent()
		if got := h.issued(1); !slices.Equal(got, []uint64{1}) {
			t.Fatalf("cycle 1 issued %v, want [1] (copy 1 parked)", got)
		}
		if h.ready(0, classGated) {
			t.Fatal("parked copy 1 kept its ready bit")
		}
		for h.m.cycle < c0.DoneAt {
			h.m.cycle++
			h.m.writebackEvent()
			if h.m.cycle < c0.DoneAt {
				h.m.issueEvent()
			}
		}
		if !c0.Done || !h.ready(0, classGated) {
			t.Fatalf("copy 0 done=%v, copy 1 re-queued=%v", c0.Done, h.ready(0, classGated))
		}
		h.m.issueEvent()
		if got := h.issued(c0.DoneAt); !slices.Equal(got, []uint64{2}) {
			t.Fatalf("cycle %d issued %v, want [2]", c0.DoneAt, got)
		}
		if h.ready(0, classGated) {
			t.Fatal("issued copy 1 kept its ready bit")
		}
	})
}

// ---------------------------------------------------------------------
// Fetch ring.

func TestFetchRingWrapAndReset(t *testing.T) {
	f := newFetchRing(3) // storage rounds to 4, depth stays 3
	if f.limit != 3 || len(f.buf) != 4 {
		t.Fatalf("depth=%d storage=%d", f.limit, len(f.buf))
	}
	for i := 0; i < 3; i++ {
		f.push(fetchedInst{pc: uint64(i)})
	}
	if !f.full() || f.len() != 3 {
		t.Fatal("ring should be full at its architectural depth")
	}
	if f.front().pc != 0 {
		t.Fatalf("front pc = %d", f.front().pc)
	}
	f.pop()
	f.push(fetchedInst{pc: 3}) // wraps storage
	var pcs []uint64
	for !f.empty() {
		pcs = append(pcs, f.front().pc)
		f.pop()
	}
	want := []uint64{1, 2, 3}
	for i := range want {
		if pcs[i] != want[i] {
			t.Fatalf("drained %v, want %v", pcs, want)
		}
	}
	f.push(fetchedInst{pc: 9})
	f.reset()
	if !f.empty() {
		t.Fatal("reset left entries")
	}
}

func TestFetchRingOverflowPanics(t *testing.T) {
	f := newFetchRing(2)
	f.push(fetchedInst{})
	f.push(fetchedInst{})
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	f.push(fetchedInst{})
}

// ---------------------------------------------------------------------
// Decoded-instruction cache.

func testMachine(t *testing.T) *Machine {
	t.Helper()
	b := prog.NewBuilder("dec")
	b.Halt()
	m, err := New(Baseline(), b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDecodeCacheHitAndInvalidate(t *testing.T) {
	m := testMachine(t)
	pc := uint64(0x10000)
	w1 := isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 1})
	w2 := isa.Encode(isa.Inst{Op: isa.OpXor, Rd: 3, Rs1: 3, Rs2: 3})
	m.mem.Write(pc, 8, w1)

	in, oi := m.decode(pc)
	if in.Op != isa.OpAddi || oi != isa.Info(isa.OpAddi) {
		t.Fatalf("decoded %v", in)
	}
	// Behind the cache's back the word changes; the cache must keep
	// serving the old decode until an invalidation lands.
	m.mem.Write(pc, 8, w2)
	if in, _ := m.decode(pc); in.Op != isa.OpAddi {
		t.Fatalf("expected cached decode, got %v", in)
	}
	// A committed store overlapping the word invalidates the slot.
	m.decInvalidate(pc+4, 4)
	if in, _ := m.decode(pc); in.Op != isa.OpXor {
		t.Fatalf("stale decode after invalidation: %v", in)
	}
}

func TestDecodeCacheStraddlingInvalidate(t *testing.T) {
	m := testMachine(t)
	a, b := uint64(0x20000), uint64(0x20008)
	m.mem.Write(a, 8, isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 5}))
	m.mem.Write(b, 8, isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 3, Rs1: 3, Imm: 6}))
	m.decode(a)
	m.decode(b)
	// An 8-byte store at a+4 overlaps both instruction words: it zeroes
	// the first word's opcode bytes and the second word's immediate.
	m.mem.Write(a+4, 8, 0)
	m.decInvalidate(a+4, 8)
	for _, pc := range []uint64{a, b} {
		want := isa.Decode(m.mem.Read(pc, isa.InstBytes))
		if in, _ := m.decode(pc); in != want {
			t.Fatalf("stale decode at %#x: got %v, want %v", pc, in, want)
		}
	}
	if in, _ := m.decode(a); in.Op != isa.OpNop {
		t.Fatalf("first word's zeroed opcode should decode to nop, got %v", in)
	}
}

// TestCommitStoreInvalidatesDecode runs a real program whose store
// lands on one of its own (already fetched and decode-cached)
// instructions, and checks the commit path's invalidation hook keeps
// the decode cache coherent with committed memory afterwards.
func TestCommitStoreInvalidatesDecode(t *testing.T) {
	patch := isa.Inst{Op: isa.OpAddi, Rd: 5, Rs1: 0, Imm: 77}
	b := prog.NewBuilder("smc")
	b.La(7, "victim")                 // 1 instruction
	b.Li(6, int64(isa.Encode(patch))) // 2 instructions (lih+ori)
	b.Label("victim")
	b.Li(5, 11) // executes unpatched this run
	b.Out(5)
	b.Store(isa.OpSd, 6, 7, 0) // overwrite the victim in memory
	b.Halt()
	victimPC := uint64(prog.TextBase) + 3*isa.InstBytes

	m, err := New(Baseline(), b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Halted || len(st.Output) != 1 || st.Output[0] != 11 {
		t.Fatalf("run: halted=%v output=%v", st.Halted, st.Output)
	}
	// The victim was fetched (so cached) before the store committed; a
	// fresh decode must now see the patched word, not the cached one.
	if in, _ := m.decode(victimPC); in != patch {
		t.Fatalf("decode after store = %v, want %v", in, patch)
	}
}
