package cpu

import (
	"testing"

	"repro/internal/isa"
)

func entryFor(op isa.Op, result, ea, storeVal, nextPC uint64, taken bool) *Entry {
	in := isa.Inst{Op: op}
	switch {
	case op == isa.OpSd:
		in = isa.Inst{Op: op, Rs1: 1, Rs2: 2}
	case op == isa.OpLd:
		in = isa.Inst{Op: op, Rd: 3, Rs1: 1}
	case op == isa.OpBeq:
		in = isa.Inst{Op: op, Rs1: 1, Rs2: 2}
	default:
		in = isa.Inst{Op: op, Rd: 3, Rs1: 1, Rs2: 2}
	}
	return &Entry{
		Valid:    true,
		Inst:     in,
		Result:   result,
		EA:       ea,
		StoreVal: storeVal,
		NextPC:   nextPC,
		Taken:    taken,
	}
}

func checkGroup(op isa.Op, n int) []*Entry {
	g := make([]*Entry, n)
	for i := range g {
		g[i] = entryFor(op, 100, 0x2000, 7, 0x1008, false)
	}
	return g
}

func TestRewindCheckerAgreement(t *testing.T) {
	var c RewindChecker
	v := c.Check(checkGroup(isa.OpAdd, 2))
	if !v.OK || v.Mismatch {
		t.Errorf("agreeing group rejected: %+v", v)
	}
}

func TestRewindCheckerFieldMismatches(t *testing.T) {
	var c RewindChecker
	cases := []struct {
		name   string
		op     isa.Op
		mutate func(e *Entry)
	}{
		{"result", isa.OpAdd, func(e *Entry) { e.Result ^= 4 }},
		{"load ea", isa.OpLd, func(e *Entry) { e.EA ^= 8 }},
		{"load value", isa.OpLd, func(e *Entry) { e.Result ^= 1 }},
		{"store ea", isa.OpSd, func(e *Entry) { e.EA ^= 16 }},
		{"store data", isa.OpSd, func(e *Entry) { e.StoreVal ^= 2 }},
		{"branch target", isa.OpBeq, func(e *Entry) { e.NextPC ^= 64 }},
		{"branch direction", isa.OpBeq, func(e *Entry) { e.Taken = !e.Taken }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := checkGroup(tc.op, 2)
			tc.mutate(g[1])
			v := c.Check(g)
			if v.OK || !v.Mismatch {
				t.Errorf("corruption not detected: %+v", v)
			}
		})
	}
}

// TestRewindCheckerIgnoresUncheckedFields: fields an instruction class
// does not produce must not cause false detections (e.g. stale EA on an
// ALU op's entry).
func TestRewindCheckerIgnoresUncheckedFields(t *testing.T) {
	var c RewindChecker
	g := checkGroup(isa.OpAdd, 2)
	g[1].EA = 0xDEAD // not part of an ALU signature
	g[1].StoreVal = 99
	g[1].Taken = true
	if v := c.Check(g); !v.OK {
		t.Errorf("false positive on unchecked fields: %+v", v)
	}
}

func TestMajorityCheckerElects(t *testing.T) {
	c := &MajorityChecker{R: 3, Threshold: 2}
	// Copy 2 corrupted: majority {0,1} commits copy 0.
	g := checkGroup(isa.OpAdd, 3)
	g[2].Result ^= 1
	v := c.Check(g)
	if !v.OK || !v.Majority || !v.Mismatch {
		t.Fatalf("majority not elected: %+v", v)
	}
	if v.Copy == 2 {
		t.Error("elected the corrupted copy")
	}

	// Copy 0 corrupted on an ALU op: majority {1,2} still commits.
	g = checkGroup(isa.OpAdd, 3)
	g[0].Result ^= 2
	v = c.Check(g)
	if !v.OK || v.Copy == 0 {
		t.Fatalf("copy-0 ALU corruption not outvoted: %+v", v)
	}

	// All three disagree: below threshold, rewind.
	g = checkGroup(isa.OpAdd, 3)
	g[1].Result ^= 4
	g[2].Result ^= 8
	if v = c.Check(g); v.OK {
		t.Fatalf("three-way disagreement accepted: %+v", v)
	}
}

func TestMajorityCheckerUnanimousFastPath(t *testing.T) {
	c := &MajorityChecker{R: 3, Threshold: 2}
	v := c.Check(checkGroup(isa.OpSd, 3))
	if !v.OK || v.Mismatch || v.Majority {
		t.Errorf("unanimous group flagged: %+v", v)
	}
}

// TestMajorityCheckerMemCopy0Rule: for memory operations the single
// access went through copy 0, so if copy 0 is the minority the group must
// rewind even though a majority exists.
func TestMajorityCheckerMemCopy0Rule(t *testing.T) {
	c := &MajorityChecker{R: 3, Threshold: 2}
	for _, op := range []isa.Op{isa.OpLd, isa.OpSd} {
		g := checkGroup(op, 3)
		g[0].EA ^= 32 // copy 0's address was corrupt: the access is tainted
		if v := c.Check(g); v.OK {
			t.Errorf("%v: tainted copy-0 access elected: %+v", op, v)
		}
		// But a corrupted non-performing copy is electable.
		g = checkGroup(op, 3)
		g[2].EA ^= 32
		if v := c.Check(g); !v.OK || !v.Majority {
			t.Errorf("%v: clean copy-0 group not elected: %+v", op, v)
		}
	}
}

func TestMajorityThresholdStrict(t *testing.T) {
	// Threshold 3 of 3: any single corruption forces a rewind.
	c := &MajorityChecker{R: 3, Threshold: 3}
	g := checkGroup(isa.OpAdd, 3)
	g[1].Result ^= 1
	if v := c.Check(g); v.OK {
		t.Errorf("strict threshold elected 2/3: %+v", v)
	}
}

func TestMajorityCheckerR5(t *testing.T) {
	// 5 copies, threshold 3: two different corruptions still leave a
	// 3-copy clean majority.
	c := &MajorityChecker{R: 5, Threshold: 3}
	g := checkGroup(isa.OpAdd, 5)
	g[1].Result ^= 1
	g[3].Result ^= 2
	v := c.Check(g)
	if !v.OK || !v.Majority {
		t.Fatalf("5-way election failed: %+v", v)
	}
	if v.Copy == 1 || v.Copy == 3 {
		t.Error("elected a corrupted copy")
	}
}
