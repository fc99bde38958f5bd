package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/prog"
)

// randomProgram emits a random but well-formed program: straight-line
// ALU/memory work with occasional forward branches over small blocks, so
// control flow always reaches the trailing halt. It deliberately creates
// register collisions, zero-register writes, back-to-back load/store
// aliasing and mixed FP/integer traffic — the cases a hand-written test
// might miss.
func randomProgram(rng *rand.Rand, n int) *prog.Program {
	b := prog.NewBuilder("random")
	buf := b.Alloc(512)
	b.Li(1, int64(buf))
	for r := uint8(2); r < 12; r++ {
		b.Li(r, rng.Int63n(1<<32)-1<<31)
	}
	for f := uint8(isa.FPBase); f < isa.FPBase+4; f++ {
		b.R(isa.OpCvtIF, f, uint8(2+f%4), 0)
	}
	intReg := func() uint8 { return uint8(rng.Intn(12)) } // includes r0 and the base
	fpReg := func() uint8 { return uint8(isa.FPBase + rng.Intn(4)) }
	off := func() int32 { return int32(rng.Intn(64)) * 8 }

	skipID := 0
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2:
			ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSll, isa.OpSrl, isa.OpSlt}
			b.R(ops[rng.Intn(len(ops))], intReg(), intReg(), intReg())
		case 3:
			ops := []isa.Op{isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpSlli, isa.OpSrai, isa.OpSlti}
			b.I(ops[rng.Intn(len(ops))], intReg(), intReg(), int32(rng.Intn(61)))
		case 4:
			b.R(isa.OpMul, intReg(), intReg(), intReg())
		case 5:
			b.R(isa.OpDiv, intReg(), intReg(), intReg()) // divide-by-zero allowed
		case 6:
			b.Load(isa.OpLd, intReg(), 1, off())
		case 7:
			b.Store(isa.OpSd, intReg(), 1, off())
		case 8:
			ops := []isa.Op{isa.OpFadd, isa.OpFsub, isa.OpFmul}
			b.R(ops[rng.Intn(len(ops))], fpReg(), fpReg(), fpReg())
		case 9:
			// A data-dependent forward branch over one instruction.
			label := "skip" + string(rune('a'+skipID%26)) + string(rune('a'+(skipID/26)%26))
			skipID++
			b.Branch(isa.OpBlt, intReg(), intReg(), label)
			b.R(isa.OpXor, intReg(), intReg(), intReg())
			b.Label(label)
		}
	}
	// Make every register architecturally observable.
	for r := uint8(2); r < 12; r++ {
		b.Out(r)
	}
	b.Halt()
	return b.MustBuild()
}

// TestRandomProgramEquivalence runs randomly generated programs through
// the out-of-order pipeline (at R = 1 and R = 2) with the oracle enabled
// and requires instruction-exact architectural equivalence with the
// in-order functional simulator.
func TestRandomProgramEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20010612))
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		p := randomProgram(rng, 120)

		ref := funcsim.New(p)
		if err := ref.Run(1_000_000); err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}

		for _, r := range []int{1, 2} {
			cfg := Baseline()
			cfg.R = r
			cfg.Oracle = true
			cfg.MaxCycles = 2_000_000
			m, err := New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatalf("trial %d R=%d: %v", trial, r, err)
			}
			if !st.Halted {
				t.Fatalf("trial %d R=%d: did not halt: %s", trial, r, st.Summary())
			}
			if st.EscapedFaults != 0 {
				t.Fatalf("trial %d R=%d: oracle divergence: %s", trial, r, st.Summary())
			}
			if len(st.Output) != len(ref.Output) {
				t.Fatalf("trial %d R=%d: %d outputs, want %d", trial, r, len(st.Output), len(ref.Output))
			}
			for i := range ref.Output {
				if st.Output[i] != ref.Output[i] {
					t.Fatalf("trial %d R=%d: output[%d] = %#x, want %#x",
						trial, r, i, st.Output[i], ref.Output[i])
				}
			}
			if st.FaultsDetected != 0 {
				t.Fatalf("trial %d R=%d: spurious detection: %s", trial, r, st.Summary())
			}
			// Committed register state matches the reference machine.
			for reg := uint8(2); reg < 12; reg++ {
				if m.Reg(reg) != ref.Reg(reg) {
					t.Fatalf("trial %d R=%d: r%d = %#x, want %#x",
						trial, r, reg, m.Reg(reg), ref.Reg(reg))
				}
			}
		}
	}
}
