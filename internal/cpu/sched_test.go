package cpu

import (
	"fmt"
	"math/bits"
	"math/rand"
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
	b := prog.NewBuilder("harness")
	b.Halt()
	m, err := New(cfg, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	m.SetHooks(Hooks{Tracer: buf})
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
// first; a saturated pool's class dropped for the rest of the cycle as
// soon as an issue fills it, while the other classes carry on; a pool
// whose unpipelined units are all still busy left out from the start
// of the cycle; a gated redundant load copy parked, then re-queued by
// its copy 0's completion; and the union of any subset of classes.
func TestReadySetScanOrder(t *testing.T) {
	t.Run("wrap-and-saturate", func(t *testing.T) {
		// RUU 128 is two words; the head at slot 124 is in word 1, so
		// the ten entries occupy slots 124..127 and 0..5.
		h := newIssueHarness(t, ModelSS1.Config(), 124)
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
		// Two IntMult units: seqs 1 and 3 issue, which fills the pool
		// and drops the class, so seqs 4 and 6 are never attempted. Four
		// IntALU units: seqs 2, 5, 7 and 8 issue and drop theirs, so seq
		// 9 is never attempted. The nop needs no unit.
		want := []uint64{1, 2, 3, 5, 7, 8, 10}
		if got := h.issued(1); !slices.Equal(got, want) {
			t.Fatalf("issue order %v, want %v", got, want)
		}
		for _, c := range []struct {
			idx, class int
			set        bool
		}{
			{124, int(isa.PoolIntMult), false}, // issued
			{127, int(isa.PoolIntMult), true},  // skipped
			{1, int(isa.PoolIntMult), true},    // skipped
			{4, int(isa.PoolIntALU), true},     // skipped
			{5, int(isa.PoolNone), false},      // issued
			{40, int(isa.PoolIntMult), true},   // class dropped before slot 40
			{41, int(isa.PoolFPAdd), false},    // visited and cleared
		} {
			if got := h.ready(c.idx, c.class); got != c.set {
				t.Errorf("slot %d class %d: bit %v, want %v", c.idx, c.class, got, c.set)
			}
		}

		// Next cycle the units are free again; the skipped entries issue
		// oldest first.
		h.m.cycle++
		h.m.issueEvent()
		if got, want := h.issued(2), []uint64{4, 6, 9}; !slices.Equal(got, want) {
			t.Fatalf("cycle 2 issue order %v, want %v", got, want)
		}
	})

	t.Run("busy-divider", func(t *testing.T) {
		// Both IntMult units take a divide in cycle 1 and stay busy for
		// its whole latency, so from cycle 2 the class is out of the walk
		// before it starts: a stale bit on the oldest slot, which any
		// visit would clear, survives until a divider frees.
		h := newIssueHarness(t, ModelSS1.Config(), 0)
		div := func(rd uint8) isa.Inst { return isa.Inst{Op: isa.OpDiv, Rd: rd} }
		h.dispatch(div(1), div(2), div(3)) // slots 0..2, seqs 1..3
		h.m.issueEvent()
		if got := h.issued(1); !slices.Equal(got, []uint64{1, 2}) {
			t.Fatalf("cycle 1 issued %v, want [1 2]", got)
		}
		h.m.ready.add(0, int(isa.PoolIntMult)) // seq 1 already issued
		free := h.m.ruu.at(0).DoneAt
		for h.m.cycle = 2; h.m.cycle < free; h.m.cycle++ {
			h.m.issueEvent()
			if !h.ready(0, int(isa.PoolIntMult)) || !h.ready(2, int(isa.PoolIntMult)) {
				t.Fatalf("cycle %d: a busy pool's class was visited", h.m.cycle)
			}
		}
		h.m.issueEvent()
		if got := h.issued(free); !slices.Equal(got, []uint64{3}) {
			t.Fatalf("cycle %d issued %v, want [3]", free, got)
		}
		if h.ready(0, int(isa.PoolIntMult)) {
			t.Fatal("stale bit survived a visit")
		}
	})

	t.Run("union-of-classes", func(t *testing.T) {
		// Four words of random single-class bits: for every word and
		// every class subset, union must equal the OR of the subset's
		// words, before and after slots leave the set.
		var s readySet
		s.init(256)
		rng := rand.New(rand.NewSource(7))
		class := make([]int, 256)
		for idx := range class {
			class[idx] = rng.Intn(readyClasses)
			if rng.Intn(3) != 0 {
				s.add(idx, class[idx])
			}
		}
		check := func() {
			t.Helper()
			if err := s.check(); err != nil {
				t.Fatal(err)
			}
			for w := range 4 {
				for mask := uint8(0); mask <= allClasses; mask++ {
					var want uint64
					for c := range readyClasses {
						if mask>>c&1 != 0 {
							want |= s.words[w*classStride+c]
						}
					}
					if got := s.union(w, mask); got != want {
						t.Fatalf("union(%d, %#b) = %#x, want %#x", w, mask, got, want)
					}
				}
			}
		}
		check()
		for idx := 0; idx < 256; idx += 3 {
			s.clearSlot(idx)
		}
		for idx := 1; idx < 256; idx += 5 {
			s.remove(idx, class[idx])
		}
		check()
	})

	t.Run("gated-load-copy", func(t *testing.T) {
		// R=2 on an RUU of 16, smaller than one word: the load's two
		// copies sit at slots 15 and 0.
		cfg := ModelSS1.Config()
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

// check reports the first slot that breaks the ready set's invariant:
// at most one class bit per slot, and each row's summary word equal to
// the OR of its class words. requireKernelsAgree runs it after every
// cycle of the event kernel.
func (s *readySet) check() error {
	for r := 0; r < len(s.words); r += classStride {
		var or, twice uint64
		for _, x := range s.words[r : r+readyClasses] {
			twice |= or & x
			or |= x
		}
		if twice != 0 {
			return fmt.Errorf("ready set: slot %d holds two class bits", r/classStride*64+bits.TrailingZeros64(twice))
		}
		if sum := s.words[r+summary]; sum != or {
			return fmt.Errorf("ready set: row %d summary %#x, classes %#x", r/classStride, sum, or)
		}
	}
	return nil
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
	m, err := New(ModelSS1.Config(), b.MustBuild())
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

// smcProgram stores patch over its own victim instruction (li r5, 11)
// after the victim has executed and printed 11.
func smcProgram(patch isa.Inst) (p *prog.Program, victimPC uint64) {
	b := prog.NewBuilder("smc")
	b.La(7, "victim")                 // 1 instruction
	b.Li(6, int64(isa.Encode(patch))) // 2 instructions (lih+ori)
	b.Label("victim")
	b.Li(5, 11) // executes unpatched this run
	b.Out(5)
	b.Store(isa.OpSd, 6, 7, 0) // overwrite the victim in memory
	b.Halt()
	return b.MustBuild(), uint64(prog.TextBase) + 3*isa.InstBytes
}

// TestCommitStoreInvalidatesDecode runs a real program whose store
// lands on one of its own (already fetched and decode-cached)
// instructions, and checks the commit path's invalidation hook keeps
// the decode cache coherent with committed memory afterwards.
func TestCommitStoreInvalidatesDecode(t *testing.T) {
	patch := isa.Inst{Op: isa.OpAddi, Rd: 5, Rs1: 0, Imm: 77}
	p, victimPC := smcProgram(patch)

	m, err := New(ModelSS1.Config(), p)
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

// TestTextStoreStaysPrivate: the patching store lands on the shared
// text page of the program's image, so it must copy the page. Another
// machine loading the program, and this machine after Reset, decode
// and run the unpatched text.
func TestTextStoreStaysPrivate(t *testing.T) {
	patch := isa.Inst{Op: isa.OpAddi, Rd: 5, Rs1: 0, Imm: 77}
	p, victimPC := smcProgram(patch)
	cfg := ModelSS2.Config()
	cfg.Oracle = true
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if in, _ := m.decode(victimPC); in != patch {
		t.Fatalf("patched machine decodes %v, want %v", in, patch)
	}
	want := p.Text[3]
	if in, _ := other.decode(victimPC); in != want {
		t.Errorf("second machine decodes %v, want the unpatched %v", in, want)
	}
	if err := m.Reset(cfg, p); err != nil {
		t.Fatal(err)
	}
	if in, _ := m.decode(victimPC); in != want {
		t.Errorf("reset machine decodes %v, want the unpatched %v", in, want)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Output) != 1 || st.Output[0] != 11 {
		t.Errorf("rerun output %v, want [11]", st.Output)
	}
}
