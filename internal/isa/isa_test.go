package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int32) bool {
		in := Inst{
			Op:  Op(op % uint8(NumOps)),
			Rd:  rd % NumRegs,
			Rs1: rs1 % NumRegs,
			Rs2: rs2 % NumRegs,
			Imm: imm,
		}
		got, ok := DecodeStrict(Encode(in))
		return ok && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInvalid(t *testing.T) {
	cases := []struct {
		name string
		word uint64
	}{
		{"bad opcode", uint64(NumOps) << 56},
		{"bad opcode max", uint64(255) << 56},
		{"bad rd", Encode(Inst{Op: OpAdd}) | uint64(NumRegs)<<48},
		{"bad rs1", Encode(Inst{Op: OpAdd}) | uint64(200)<<40},
		{"bad rs2", Encode(Inst{Op: OpAdd}) | uint64(NumRegs)<<32},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := DecodeStrict(c.word); ok {
				t.Errorf("DecodeStrict(%#x) accepted an invalid word", c.word)
			}
			if got := Decode(c.word); got.Op != OpNop {
				t.Errorf("Decode(%#x) = %v, want nop", c.word, got)
			}
		})
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v; want %v, true", op.String(), got, ok, op)
		}
	}
	if _, ok := OpByName("no-such-op"); ok {
		t.Error("OpByName accepted an unknown mnemonic")
	}
}

func TestInfoConsistency(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		oi := Info(op)
		if oi.Name == "" {
			t.Fatalf("op %d has no name", op)
		}
		if oi.Latency < 1 {
			t.Errorf("%s: latency %d < 1", oi.Name, oi.Latency)
		}
		if oi.IsLoad && oi.Pool != PoolMemPort {
			t.Errorf("%s: load not on mem port", oi.Name)
		}
		if oi.IsStore && oi.WritesRd {
			t.Errorf("%s: store writes a register", oi.Name)
		}
		if oi.IsBranch && oi.IsJump {
			t.Errorf("%s: both branch and jump", oi.Name)
		}
		if !oi.Pipelined && oi.Latency <= 4 {
			t.Errorf("%s: short-latency op marked unpipelined", oi.Name)
		}
	}
}

func TestEvalIntALU(t *testing.T) {
	cases := []struct {
		op   Op
		imm  int32
		a, b uint64
		want uint64
	}{
		{OpAdd, 0, 3, 4, 7},
		{OpAdd, 0, ^uint64(0), 1, 0},
		{OpSub, 0, 3, 4, ^uint64(0)},
		{OpAddi, -1, 10, 0, 9},
		{OpAnd, 0, 0xF0F0, 0xFF00, 0xF000},
		{OpOr, 0, 0xF0F0, 0x0F0F, 0xFFFF},
		{OpXor, 0, 0xFFFF, 0x0F0F, 0xF0F0},
		{OpAndi, -1, 0xFFFF_FFFF_0000_1234, 0, 0x1234},   // zero-extended imm
		{OpOri, -1, 0, 0, 0xFFFF_FFFF},                   // zero-extended imm
		{OpXori, int32(-0x8000_0000), 0, 0, 0x8000_0000}, // zero-extended imm
		{OpSll, 0, 1, 8, 256},
		{OpSll, 0, 1, 64 + 3, 8}, // shift amount masked to 6 bits
		{OpSrl, 0, 1 << 63, 63, 1},
		{OpSra, 0, 1 << 63, 63, ^uint64(0)},
		{OpSlli, 4, 3, 0, 48},
		{OpSrli, 4, 256, 0, 16},
		{OpSrai, 1, negU64(8), 0, negU64(4)},
		{OpSlt, 0, negU64(1), 0, 1},
		{OpSltu, 0, negU64(1), 0, 0},
		{OpSlti, 5, 4, 0, 1},
		{OpLi, -7, 99, 99, negU64(7)},
		{OpLih, 0x1234, 0, 0, 0x1234_0000_0000},
		{OpMul, 0, 7, 6, 42},
		{OpMul, 0, negU64(3), 5, negU64(15)},
		{OpDiv, 0, 42, 6, 7},
		{OpDiv, 0, negU64(42), 6, negU64(7)},
		{OpDiv, 0, 5, 0, ^uint64(0)},             // divide by zero
		{OpDiv, 0, 1 << 63, ^uint64(0), 1 << 63}, // MinInt64 / -1 wraps
		{OpRem, 0, 43, 6, 1},
		{OpRem, 0, 5, 0, 5},
		{OpRem, 0, 1 << 63, ^uint64(0), 0},
		{OpMovIF, 0, 0xDEAD, 0, 0xDEAD},
		{OpOut, 0, 123, 0, 123},
	}
	for _, c := range cases {
		if got := Eval(c.op, c.imm, c.a, c.b); got != c.want {
			t.Errorf("Eval(%v, imm=%d, %#x, %#x) = %#x, want %#x", c.op, c.imm, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalFP(t *testing.T) {
	cases := []struct {
		op   Op
		a, b float64
		want float64
	}{
		{OpFadd, 1.5, 2.25, 3.75},
		{OpFsub, 1.5, 2.5, -1.0},
		{OpFmul, 3, 4, 12},
		{OpFdiv, 1, 4, 0.25},
		{OpFsqrt, 81, 0, 9},
	}
	for _, c := range cases {
		got := B2F(Eval(c.op, 0, F2B(c.a), F2B(c.b)))
		if got != c.want {
			t.Errorf("Eval(%v, %g, %g) = %g, want %g", c.op, c.a, c.b, got, c.want)
		}
	}

	boolCases := []struct {
		op   Op
		a, b float64
		want uint64
	}{
		{OpFeq, 2, 2, 1}, {OpFeq, 2, 3, 0},
		{OpFlt, 2, 3, 1}, {OpFlt, 3, 2, 0},
		{OpFle, 2, 2, 1}, {OpFle, 3, 2, 0},
	}
	for _, c := range boolCases {
		if got := Eval(c.op, 0, F2B(c.a), F2B(c.b)); got != c.want {
			t.Errorf("Eval(%v, %g, %g) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalConversions(t *testing.T) {
	if got := B2F(Eval(OpCvtIF, 0, negU64(3), 0)); got != -3.0 {
		t.Errorf("cvtif(-3) = %g", got)
	}
	if got := Eval(OpCvtFI, 0, F2B(-3.75), 0); got != negU64(3) {
		t.Errorf("cvtfi(-3.75) = %d, want -3", int64(got))
	}
	nan := F2B(B2F(0x7FF8_0000_0000_0001))
	if got := Eval(OpCvtFI, 0, nan, 0); got != 0 {
		t.Errorf("cvtfi(NaN) = %#x, want 0", got)
	}
	if got := Eval(OpCvtFI, 0, F2B(1e300), 0); int64(got) != int64(^uint64(0)>>1) {
		t.Errorf("cvtfi(1e300) = %d, want MaxInt64", int64(got))
	}
	if got := Eval(OpCvtFI, 0, F2B(-1e300), 0); got != 1<<63 {
		t.Errorf("cvtfi(-1e300) = %#x, want MinInt64 pattern", got)
	}
}

func TestEvalCtrl(t *testing.T) {
	const pc = 0x1000
	fall := uint64(pc + InstBytes)
	cases := []struct {
		op        Op
		imm       int32
		a, b      uint64
		wantTaken bool
		wantNext  uint64
	}{
		{OpBeq, 64, 5, 5, true, pc + 64},
		{OpBeq, 64, 5, 6, false, fall},
		{OpBne, -16, 5, 6, true, pc - 16},
		{OpBne, -16, 5, 5, false, fall},
		{OpBlt, 8, negU64(1), 0, true, pc + 8},
		{OpBlt, 8, 1, 0, false, fall},
		{OpBge, 8, 1, 0, true, pc + 8},
		{OpBge, 8, 1, 1, true, pc + 8},
		{OpBge, 8, negU64(2), 0, false, fall},
		{OpJ, 800, 0, 0, true, pc + 800},
		{OpJal, -8, 0, 0, true, pc - 8},
		{OpJr, 0, 0x4000, 0, true, 0x4000},
		{OpJalr, 0, 0x4000, 0, true, 0x4000},
	}
	for _, c := range cases {
		taken, next, link := EvalCtrl(c.op, pc, c.imm, c.a, c.b)
		if taken != c.wantTaken || next != c.wantNext {
			t.Errorf("EvalCtrl(%v, imm=%d, a=%#x) = taken=%v next=%#x, want %v %#x",
				c.op, c.imm, c.a, taken, next, c.wantTaken, c.wantNext)
		}
		if link != fall {
			t.Errorf("EvalCtrl(%v): link = %#x, want %#x", c.op, link, fall)
		}
	}
	// Non-control op: never taken.
	if taken, next, _ := EvalCtrl(OpAdd, pc, 0, 1, 2); taken || next != fall {
		t.Errorf("EvalCtrl(add) = %v, %#x; want false, fall-through", taken, next)
	}
}

func TestLoadWidth(t *testing.T) {
	cases := []struct {
		op      Op
		size    int
		signExt bool
	}{
		{OpLd, 8, false}, {OpSd, 8, false}, {OpFld, 8, false}, {OpFsd, 8, false},
		{OpLw, 4, true}, {OpSw, 4, true},
		{OpLb, 1, true}, {OpSb, 1, true},
		{OpAdd, 0, false},
	}
	for _, c := range cases {
		size, se := LoadWidth(c.op)
		if size != c.size || se != c.signExt {
			t.Errorf("LoadWidth(%v) = %d, %v; want %d, %v", c.op, size, se, c.size, c.signExt)
		}
	}
}

func TestSignExtend(t *testing.T) {
	cases := []struct {
		v    uint64
		size int
		want uint64
	}{
		{0x80, 1, 0xFFFF_FFFF_FFFF_FF80},
		{0x7F, 1, 0x7F},
		{0x8000, 2, 0xFFFF_FFFF_FFFF_8000},
		{0x8000_0000, 4, 0xFFFF_FFFF_8000_0000},
		{0x7FFF_FFFF, 4, 0x7FFF_FFFF},
		{0xDEAD, 8, 0xDEAD},
	}
	for _, c := range cases {
		if got := SignExtend(c.v, c.size); got != c.want {
			t.Errorf("SignExtend(%#x, %d) = %#x, want %#x", c.v, c.size, got, c.want)
		}
	}
}

func TestEffAddr(t *testing.T) {
	if got := EffAddr(-8, 0x1000); got != 0xFF8 {
		t.Errorf("EffAddr(-8, 0x1000) = %#x, want 0xff8", got)
	}
	if got := EffAddr(16, 0x1000); got != 0x1010 {
		t.Errorf("EffAddr(16, 0x1000) = %#x, want 0x1010", got)
	}
}

func TestRegName(t *testing.T) {
	cases := []struct {
		r    uint8
		want string
	}{
		{0, "r0"}, {31, "r31"}, {32, "f0"}, {63, "f31"}, {64, "reg(64)"},
	}
	for _, c := range cases {
		if got := RegName(c.r); got != c.want {
			t.Errorf("RegName(%d) = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpNop}, "nop"},
		{Inst{Op: OpHalt}, "halt"},
		{Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: OpAddi, Rd: 1, Rs1: 2, Imm: -5}, "addi r1, r2, -5"},
		{Inst{Op: OpLd, Rd: 4, Rs1: 30, Imm: 16}, "ld r4, 16(r30)"},
		{Inst{Op: OpSd, Rs1: 30, Rs2: 4, Imm: -8}, "sd r4, -8(r30)"},
		{Inst{Op: OpBeq, Rs1: 1, Rs2: 2, Imm: 32}, "beq r1, r2, 32"},
		{Inst{Op: OpJ, Imm: -64}, "j -64"},
		{Inst{Op: OpJr, Rs1: 31}, "jr r31"},
		{Inst{Op: OpFadd, Rd: 33, Rs1: 34, Rs2: 35}, "fadd f1, f2, f3"},
		{Inst{Op: OpLi, Rd: 5, Imm: 42}, "li r5, 42"},
		{Inst{Op: OpOut, Rs1: 7}, "out r7"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%+v).String() = %q, want %q", c.in, got, c.want)
		}
	}
	// Every opcode must disassemble to something starting with its mnemonic.
	for op := Op(0); op < NumOps; op++ {
		s := Inst{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: 4}.String()
		if !strings.HasPrefix(s, op.String()) {
			t.Errorf("disassembly %q does not start with mnemonic %q", s, op.String())
		}
	}
}

func TestPoolString(t *testing.T) {
	for p := Pool(0); p < NumPools; p++ {
		if s := p.String(); s == "" || strings.HasPrefix(s, "pool(") {
			t.Errorf("Pool(%d).String() = %q", p, s)
		}
	}
	if s := Pool(200).String(); s != "pool(200)" {
		t.Errorf("unknown pool string = %q", s)
	}
}

// TestPoolText: every unit pool round-trips through its name; PoolNone
// and out-of-range values name no unit and are refused.
func TestPoolText(t *testing.T) {
	for p := PoolIntALU; p < NumPools; p++ {
		text, err := p.MarshalText()
		if err != nil || string(text) != p.String() {
			t.Errorf("%v.MarshalText() = %q, %v", p, text, err)
		}
		var back Pool
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, back, err, p)
		}
	}
	for _, p := range []Pool{PoolNone, NumPools, 200} {
		if _, err := p.MarshalText(); err == nil {
			t.Errorf("%v marshalled", p)
		}
	}
	for _, name := range []string{"none", "gpu", "pool(9)", ""} {
		var p Pool
		if err := p.UnmarshalText([]byte(name)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", name)
		}
	}
}

// negU64 returns the two's-complement representation of -v.
func negU64(v uint64) uint64 { return ^v + 1 }
