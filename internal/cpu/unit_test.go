package cpu

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// RUU ring buffer.

func TestRUURing(t *testing.T) {
	r := newRUU(4)
	if !r.empty() || r.free() != 4 {
		t.Fatal("fresh RUU not empty")
	}
	for i := 0; i < 4; i++ {
		idx := r.alloc()
		e := r.at(idx)
		e.Valid = true
		e.Seq = uint64(i + 1)
	}
	if r.free() != 0 {
		t.Fatalf("free = %d after filling", r.free())
	}
	// Release two, allocate two more: indices wrap.
	r.release()
	r.release()
	if r.free() != 2 || r.head != 2 {
		t.Fatalf("after releases: free=%d head=%d", r.free(), r.head)
	}
	i5 := r.alloc()
	if i5 != 0 {
		t.Fatalf("wrapped alloc at %d, want 0", i5)
	}
	e := r.at(i5)
	e.Valid, e.Seq = true, 5
	// forEach visits oldest -> youngest.
	var seqs []uint64
	r.forEach(func(_ int, e *Entry) bool {
		seqs = append(seqs, e.Seq)
		return true
	})
	want := []uint64{3, 4, 5}
	if len(seqs) != len(want) {
		t.Fatalf("visited %v", seqs)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("visited %v, want %v", seqs, want)
		}
	}
}

// TestAllocHandsOutZeroSlots pins the invariant dispatch relies on
// when it writes only an entry's non-zero fields: whenever dispatch
// runs, every free RUU slot is Entry{} — after commits, branch squashes,
// fault rewinds and a Reset of a machine stopped mid-run.
func TestAllocHandsOutZeroSlots(t *testing.T) {
	p, _ := workload.ByName("gcc")
	program, err := p.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Baseline()
	cfg.R = 2
	cfg.Fault = fault.Config{Rate: 1e-2, Seed: 9, Targets: fault.AllTargets}
	m, err := New(cfg, program)
	if err != nil {
		t.Fatal(err)
	}
	// run steps the machine the way RunContext does, checking the free
	// slots [tail, head) just before each dispatch.
	run := func(cycles int) {
		t.Helper()
		for i := 0; i < cycles && !m.halted; i++ {
			m.cycle++
			if err := m.commit(); err != nil {
				t.Fatal(err)
			}
			m.writebackFn()
			m.issueFn()
			for k := m.ruu.count; k < m.ruu.size(); k++ {
				if idx := m.ruu.wrap(m.ruu.head + k); *m.ruu.at(idx) != (Entry{}) {
					t.Fatalf("cycle %d: free slot %d is %+v", m.cycle, idx, *m.ruu.at(idx))
				}
			}
			m.dispatch()
			m.fetch()
		}
	}
	run(20_000)
	if st := m.Stats(); st.Committed == 0 || st.BranchRewinds == 0 || st.FaultRewinds == 0 {
		t.Fatalf("run too tame: committed=%d branch rewinds=%d fault rewinds=%d",
			st.Committed, st.BranchRewinds, st.FaultRewinds)
	}
	if m.ruu.count == 0 {
		t.Fatal("want live entries at the Reset")
	}
	if err := m.Reset(cfg, program); err != nil {
		t.Fatal(err)
	}
	run(2_000)
}

func TestRUUTruncateAfter(t *testing.T) {
	r := newRUU(8)
	for i := 0; i < 6; i++ {
		idx := r.alloc()
		e := r.at(idx)
		e.Valid = true
		e.Seq = uint64(i + 1)
	}
	if n := r.truncateAfter(4, false); n != 2 {
		t.Fatalf("squashed %d entries, want 2", n)
	}
	if r.count != 4 || r.tail != 4 {
		t.Fatalf("count=%d tail=%d", r.count, r.tail)
	}
	// Squashing everything.
	if n := r.truncateAfter(0, true); n != 4 {
		t.Fatalf("squash-all removed %d", n)
	}
	if !r.empty() {
		t.Fatal("not empty after squash-all")
	}
}

func TestRUUOverflowPanics(t *testing.T) {
	r := newRUU(1)
	r.alloc()
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	r.alloc()
}

func TestRUUUnderflowPanics(t *testing.T) {
	r := newRUU(1)
	defer func() {
		if recover() == nil {
			t.Error("underflow did not panic")
		}
	}()
	r.release()
}

// ---------------------------------------------------------------------
// LSQ disambiguation.

func newTestLSQ(t *testing.T, entries ...lsqEntry) *lsq {
	t.Helper()
	q := newLSQ(8)
	for _, e := range entries {
		idx := q.alloc()
		e.valid = true
		*q.at(idx) = e
	}
	return q
}

func TestLSQForwardExactMatch(t *testing.T) {
	q := newTestLSQ(t,
		lsqEntry{seq: 1, isLoad: false, addrReady: true, addr: 0x100, size: 8, dataReady: true, data: 42},
		lsqEntry{seq: 2, isLoad: true},
	)
	conflict, val := q.checkLoad(1, 0x100, 8)
	if conflict != loadForward || val != 42 {
		t.Errorf("exact match: %v, %d", conflict, val)
	}
}

func TestLSQBlockedOnUnknownStore(t *testing.T) {
	q := newTestLSQ(t,
		lsqEntry{seq: 1, isLoad: false, addrReady: false},
		lsqEntry{seq: 2, isLoad: true},
	)
	if conflict, _ := q.checkLoad(1, 0x100, 8); conflict != loadBlocked {
		t.Errorf("unknown-address store: %v", conflict)
	}
}

func TestLSQBlockedOnPartialOverlap(t *testing.T) {
	q := newTestLSQ(t,
		lsqEntry{seq: 1, addrReady: true, addr: 0x100, size: 8, dataReady: true, data: 1},
		lsqEntry{seq: 2, isLoad: true},
	)
	// 1-byte load inside the 8-byte store: partial overlap, must wait.
	if conflict, _ := q.checkLoad(1, 0x103, 1); conflict != loadBlocked {
		t.Error("partial overlap not blocked")
	}
	// Store data not yet ready with matching address: also blocked.
	q2 := newTestLSQ(t,
		lsqEntry{seq: 1, addrReady: true, addr: 0x100, size: 8, dataReady: false},
		lsqEntry{seq: 2, isLoad: true},
	)
	if conflict, _ := q2.checkLoad(1, 0x100, 8); conflict != loadBlocked {
		t.Error("data-not-ready store not blocked")
	}
}

func TestLSQClearWhenDisjoint(t *testing.T) {
	q := newTestLSQ(t,
		lsqEntry{seq: 1, addrReady: true, addr: 0x100, size: 8, dataReady: true},
		lsqEntry{seq: 2, isLoad: true},
	)
	if conflict, _ := q.checkLoad(1, 0x200, 8); conflict != loadClear {
		t.Error("disjoint addresses blocked")
	}
	// Adjacent but non-overlapping.
	if conflict, _ := q.checkLoad(1, 0x108, 8); conflict != loadClear {
		t.Error("adjacent access blocked")
	}
}

func TestLSQNearestStoreForwards(t *testing.T) {
	q := newTestLSQ(t,
		lsqEntry{seq: 1, addrReady: true, addr: 0x100, size: 8, dataReady: true, data: 1},
		lsqEntry{seq: 2, addrReady: true, addr: 0x100, size: 8, dataReady: true, data: 2},
		lsqEntry{seq: 3, isLoad: true},
	)
	if _, val := q.checkLoad(2, 0x100, 8); val != 2 {
		t.Errorf("forwarded %d, want the youngest older store's 2", val)
	}
}

func TestLSQYoungerStoresIgnored(t *testing.T) {
	q := newTestLSQ(t,
		lsqEntry{seq: 2, isLoad: true},
		lsqEntry{seq: 5, addrReady: true, addr: 0x100, size: 8, dataReady: true, data: 9},
	)
	// The store is younger (seq 5 > 2): the load must not see it.
	if conflict, _ := q.checkLoad(0, 0x100, 8); conflict != loadClear {
		t.Error("younger store affected an older load")
	}
}

func TestLSQTruncateAndRelease(t *testing.T) {
	q := newTestLSQ(t,
		lsqEntry{seq: 1, gid: 10, isLoad: true},
		lsqEntry{seq: 2, gid: 11, isLoad: true},
		lsqEntry{seq: 3, gid: 12, isLoad: true},
	)
	q.truncateAfter(2, false)
	if q.count != 2 {
		t.Fatalf("count = %d after truncate", q.count)
	}
	q.releaseHead(10)
	q.releaseHead(11)
	if q.count != 0 {
		t.Fatalf("count = %d after releases", q.count)
	}
}

func TestLSQReleaseHeadMismatchPanics(t *testing.T) {
	q := newTestLSQ(t, lsqEntry{seq: 1, gid: 10})
	defer func() {
		if recover() == nil {
			t.Error("gid mismatch did not panic")
		}
	}()
	q.releaseHead(99)
}

func TestOverlapPredicate(t *testing.T) {
	cases := []struct {
		a    uint64
		an   int
		b    uint64
		bn   int
		want bool
	}{
		{0x100, 8, 0x100, 8, true},
		{0x100, 8, 0x107, 1, true},
		{0x100, 8, 0x108, 8, false},
		{0x108, 8, 0x100, 8, false},
		{0x100, 1, 0x100, 8, true},
		{0x0FF, 2, 0x100, 4, true},
	}
	for _, c := range cases {
		if got := overlap(c.a, c.an, c.b, c.bn); got != c.want {
			t.Errorf("overlap(%#x+%d, %#x+%d) = %v, want %v", c.a, c.an, c.b, c.bn, got, c.want)
		}
	}
}

// ---------------------------------------------------------------------
// Functional-unit pools.

func TestFUPipelined(t *testing.T) {
	p := newFUPool(isa.PoolIntALU, 2)
	// Two units accept two issues in one cycle; the third must wait.
	if p.tryIssue(10, 1, true, -1) < 0 || p.tryIssue(10, 1, true, -1) < 0 {
		t.Fatal("two pipelined issues rejected")
	}
	if p.tryIssue(10, 1, true, -1) >= 0 {
		t.Fatal("third same-cycle issue accepted on 2 units")
	}
	if p.anyFree(10) || !p.anyFree(11) {
		t.Fatal("anyFree disagrees with the saturated cycle")
	}
	// Next cycle both are free again (pipelined).
	if p.tryIssue(11, 1, true, -1) < 0 {
		t.Fatal("pipelined unit not free next cycle")
	}
}

func TestFUUnpipelined(t *testing.T) {
	p := newFUPool(isa.PoolFPMult, 1)
	if p.tryIssue(10, 12, false, -1) < 0 {
		t.Fatal("first issue rejected")
	}
	// Busy for the full latency.
	if p.tryIssue(11, 12, false, -1) >= 0 || p.tryIssue(21, 12, false, -1) >= 0 {
		t.Fatal("unpipelined unit accepted a second op while busy")
	}
	if p.anyFree(21) || !p.anyFree(22) {
		t.Fatal("anyFree disagrees with the unit's busy window")
	}
	if p.tryIssue(22, 12, false, -1) < 0 {
		t.Fatal("unit not free after latency elapsed")
	}
}

func TestFUPreference(t *testing.T) {
	p := newFUPool(isa.PoolIntALU, 4)
	// Preferred instance granted when free.
	if got := p.tryIssue(5, 1, true, 2); got != 2 {
		t.Fatalf("preferred unit not granted: %d", got)
	}
	// Preferred busy: falls back to another instance.
	if got := p.tryIssue(5, 1, true, 2); got == 2 || got < 0 {
		t.Fatalf("fallback pick = %d", got)
	}
}

// ---------------------------------------------------------------------
// Co-scheduling: redundant copies land on distinct physical units.

type recordingChecker struct{ distinct, same int }

func (rc *recordingChecker) Check(group []*Entry) Verdict {
	if len(group) == 2 && group[0].FUPool == isa.PoolIntALU {
		if group[0].FUUnit != group[1].FUUnit {
			rc.distinct++
		} else {
			rc.same++
		}
	}
	return Verdict{OK: true}
}

func TestCoSchedulePlacesCopiesOnDistinctUnits(t *testing.T) {
	// Serial adds so copies of the same group tend to issue together.
	b := prog.NewBuilder("cosched")
	b.Li(1, 400)
	b.Label("loop")
	for i := 0; i < 6; i++ {
		b.R(isa.OpAdd, 2, 2, 2)
	}
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	p := b.MustBuild()

	measure := func(cosched bool) (distinct, same int) {
		cfg := Baseline()
		cfg.R = 2
		cfg.CoSchedule = cosched
		cfg.MaxCycles = 1_000_000
		m, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		rc := &recordingChecker{}
		m.checker = rc
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return rc.distinct, rc.same
	}

	d1, s1 := measure(true)
	if d1 == 0 {
		t.Fatal("no ALU groups observed")
	}
	// With co-scheduling, the overwhelming majority of groups use
	// distinct physical units.
	if frac := float64(d1) / float64(d1+s1); frac < 0.9 {
		t.Errorf("co-scheduled distinct fraction = %.2f", frac)
	}
	// Without it, placement is first-free and collisions are common
	// enough to tell the modes apart.
	d0, s0 := measure(false)
	if float64(d0)/float64(d0+s0) > float64(d1)/float64(d1+s1) {
		t.Errorf("co-scheduling reduced distinct placement: %d/%d vs %d/%d", d1, s1, d0, s0)
	}
}

// ---------------------------------------------------------------------
// ECC recovery anchor.

func TestNextPCUpsetAbsorbed(t *testing.T) {
	b := prog.NewBuilder("upset")
	b.Li(1, 1000)
	b.Label("loop")
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Out(1)
	b.Halt()
	cfg := Baseline()
	cfg.R = 2
	cfg.Oracle = true
	m, err := New(cfg, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit of the committed next-PC before running: SECDED must
	// scrub it, or the very first PC-continuity check would rewind to a
	// corrupt address and the program would never recover.
	m.UpsetNextPC(7)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Halted || st.EscapedFaults != 0 || st.PCCheckFails != 0 {
		t.Fatalf("upset not absorbed: %s", st.Summary())
	}
	if st.Output[0] != 0 {
		t.Fatalf("output = %d", st.Output[0])
	}
}

// ---------------------------------------------------------------------
// Redundant loads: one access, value delivered to all copies.

func TestRedundantLoadSingleAccess(t *testing.T) {
	b := prog.NewBuilder("ldonce")
	addr := b.Word(1234)
	b.Li(1, int64(addr))
	b.Li(3, 500)
	b.Label("loop")
	b.Load(isa.OpLd, 2, 1, 0)
	b.I(isa.OpAddi, 3, 3, -1)
	b.Branch(isa.OpBne, 3, 0, "loop")
	b.Out(2)
	b.Halt()
	p := b.MustBuild()

	run := func(r int) (dl1Accesses uint64, out uint64) {
		cfg := Baseline()
		cfg.R = r
		cfg.MaxCycles = 1_000_000
		m, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Halted {
			t.Fatal("did not halt")
		}
		return st.DL1.Accesses, st.Output[0]
	}

	a1, o1 := run(1)
	a2, o2 := run(2)
	if o1 != 1234 || o2 != 1234 {
		t.Fatalf("outputs: %d, %d", o1, o2)
	}
	// Section 5.1.2: only one memory access per load group, so the D-cache
	// sees the same (within noise from wrong-path fetches) traffic in
	// both modes — not twice as much.
	if float64(a2) > float64(a1)*1.3 {
		t.Errorf("SS-2 D-cache accesses %d vs SS-1 %d: loads are being duplicated", a2, a1)
	}
}

// ---------------------------------------------------------------------
// Pipeline tracing.

func TestPipelineTrace(t *testing.T) {
	b := prog.NewBuilder("traced")
	b.Li(1, 50)
	b.Label("loop")
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	buf := trace.NewBuffer(100_000)
	cfg := Baseline()
	cfg.R = 2
	cfg.Tracer = buf
	cfg.MaxCycles = 100_000
	m, err := New(cfg, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Halted {
		t.Fatal("did not halt")
	}
	// Every committed copy produced dispatch, issue, complete, commit.
	commits := buf.CountStage(trace.StageCommit)
	if uint64(commits) != st.Copies {
		t.Errorf("traced %d commits, stats say %d copies", commits, st.Copies)
	}
	if buf.CountStage(trace.StageDispatch) < commits {
		t.Error("fewer dispatches than commits")
	}
	// The loop's first bne mispredicts at least once, so squashes exist.
	if buf.CountStage(trace.StageSquash) == 0 {
		t.Error("no squash events despite branch rewinds")
	}
	// Per-copy event ordering: dispatch <= issue <= complete <= commit.
	type times struct{ d, i, c, r uint64 }
	byseq := map[uint64]*times{}
	for _, e := range buf.Events() {
		tt := byseq[e.Seq]
		if tt == nil {
			tt = &times{}
			byseq[e.Seq] = tt
		}
		switch e.Stage {
		case trace.StageDispatch:
			tt.d = e.Cycle
		case trace.StageIssue:
			tt.i = e.Cycle
		case trace.StageComplete:
			tt.c = e.Cycle
		case trace.StageCommit:
			tt.r = e.Cycle
		}
	}
	for seq, tt := range byseq {
		if tt.r == 0 {
			continue // squashed or truncated record
		}
		if !(tt.d <= tt.i && tt.i <= tt.c && tt.c <= tt.r) {
			t.Fatalf("seq %d: stage cycles out of order: %+v", seq, tt)
		}
	}
	// The timeline renders without error and mentions the loop branch.
	var sb strings.Builder
	buf.Timeline(&sb)
	if !strings.Contains(sb.String(), "bne") {
		t.Error("timeline missing the branch")
	}
}
