package cpu

import "repro/internal/isa"

// Verdict is the commit-stage decision for one instruction group.
type Verdict struct {
	// OK permits the group to retire; false triggers a full rewind
	// (discard the RUU, refetch from the committed next-PC).
	OK bool
	// Copy selects whose values to commit (relevant when a majority
	// election accepted the group despite a disagreeing copy).
	Copy int
	// Mismatch records that at least one field disagreed between copies
	// (set both for rewinds and for majority-accepted commits).
	Mismatch bool
	// Majority marks a group committed by majority election.
	Majority bool
}

// Checker cross-checks the R completed copies of a retiring instruction.
// The paper's two policies are RewindChecker (rewind on any mismatch,
// the R=2 design) and MajorityChecker (majority election for R>=3). The
// checker sees entries in copy order.
type Checker interface {
	Check(group []*Entry) Verdict
}

// signature is the set of fields the commit stage corroborates between
// redundant copies of one instruction (Section 3.2: "If any fields of the
// entries disagree, then an error has occurred"). Fields that an
// instruction class does not produce are zero in every copy and compare
// equal trivially.
type signature struct {
	result   uint64
	ea       uint64
	storeVal uint64
	nextPC   uint64
	taken    bool
}

func signatureOf(e *Entry) signature {
	s := signature{nextPC: e.NextPC}
	oi := e.Inst.Info()
	switch {
	case oi.IsStore:
		s.ea, s.storeVal = e.EA, e.StoreVal
	case oi.IsLoad:
		s.ea, s.result = e.EA, e.Result
	case oi.IsCtrl():
		s.taken = e.Taken
		if oi.WritesRd {
			s.result = e.Result // link value
		}
	case oi.WritesRd:
		s.result = e.Result
	case e.Inst.Op == isa.OpOut:
		s.result = e.Result
	}
	return s
}

// RewindChecker is the base detection policy: all copies must agree on
// every checked field, otherwise the group is rejected and the machine
// rewinds. This is the paper's R=2 design.
type RewindChecker struct{}

// Check compares all copies against copy 0.
func (RewindChecker) Check(group []*Entry) Verdict {
	ref := signatureOf(group[0])
	for _, e := range group[1:] {
		if signatureOf(e) != ref {
			return Verdict{OK: false, Mismatch: true}
		}
	}
	return Verdict{OK: true}
}

// MajorityChecker implements the R >= 3 policy of Section 3.2: if at
// least Threshold copies agree on every checked field, the group commits
// with the majority's values even though a discrepancy was detected;
// otherwise a complete rewind is invoked.
type MajorityChecker struct {
	R         int
	Threshold int

	// sigs is per-call scratch, reused across Check calls so the commit
	// hot loop stays allocation-free. A checker belongs to exactly one
	// machine and Check runs on the machine's goroutine, so no locking.
	sigs []signature
}

// Check elects a majority among the copies' signatures.
func (c *MajorityChecker) Check(group []*Entry) Verdict {
	// Fast path: unanimous agreement.
	unanimous := true
	ref := signatureOf(group[0])
	if cap(c.sigs) < len(group) {
		c.sigs = make([]signature, len(group))
	}
	sigs := c.sigs[:len(group)]
	sigs[0] = ref
	for i, e := range group[1:] {
		sigs[i+1] = signatureOf(e)
		if sigs[i+1] != ref {
			unanimous = false
		}
	}
	if unanimous {
		return Verdict{OK: true}
	}
	// Count agreement classes; R is tiny (2..4), so O(R^2) is fine.
	bestCopy, bestCount := -1, 0
	for i := range sigs {
		count := 0
		for j := range sigs {
			if sigs[j] == sigs[i] {
				count++
			}
		}
		if count > bestCount {
			bestCopy, bestCount = i, count
		}
	}
	if bestCount < c.Threshold {
		return Verdict{OK: false, Mismatch: true}
	}
	// Memory operations are special: the datapath performs one access
	// per group through copy 0's LSQ entry (Section 5.1.2 — addresses
	// are computed redundantly but only one memory access is performed).
	// If copy 0 is the corrupted minority, the side effects that already
	// happened through the LSQ (the load's single fetch, or the store's
	// forwarding address/data seen by younger loads) used corrupt values
	// that no election can repair, so recovery must rewind.
	if group[0].Inst.Info().IsMem() && sigs[0] != sigs[bestCopy] {
		return Verdict{OK: false, Mismatch: true}
	}
	return Verdict{OK: true, Copy: bestCopy, Mismatch: true, Majority: true}
}
