package prog

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

func TestBuilderBranchResolution(t *testing.T) {
	b := NewBuilder("t")
	b.Label("top")                    // index 0
	b.Nop()                           // 0
	b.Branch(isa.OpBeq, 1, 2, "done") // 1 -> index 3: offset (3-1)*8 = 16
	b.Jump("top")                     // 2 -> index 0: offset -16
	b.Label("done")
	b.Halt() // 3
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Text[1].Imm; got != 16 {
		t.Errorf("forward branch imm = %d, want 16", got)
	}
	if got := p.Text[2].Imm; got != -16 {
		t.Errorf("backward jump imm = %d, want -16", got)
	}
	if p.Symbols["done"] != TextBase+3*isa.InstBytes {
		t.Errorf("symbol done = %#x", p.Symbols["done"])
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x")
	b.Label("x")
	if _, err := b.Build(); err == nil {
		t.Error("duplicate label not reported")
	}

	b2 := NewBuilder("undef")
	b2.Jump("nowhere")
	if _, err := b2.Build(); err == nil {
		t.Error("undefined label not reported")
	}
}

// TestCheckLayout: text may end exactly at DataBase and data exactly at
// StackTop; one instruction or byte more is an error, and so is a
// program that overruns either segment in Builder.Build.
func TestCheckLayout(t *testing.T) {
	const maxInsts = (DataBase - TextBase) / isa.InstBytes
	const maxData = StackTop - DataBase
	if maxInsts != 130_560 || maxData != 133_169_152 {
		t.Fatalf("limits %d insts, %d bytes", maxInsts, maxData)
	}
	for _, c := range []struct {
		insts, data uint64
		ok          bool
	}{
		{0, 0, true},
		{maxInsts, maxData, true},
		{maxInsts + 1, 0, false},
		{0, maxData + 1, false},
		{^uint64(0), ^uint64(0), false},
	} {
		if err := CheckLayout(c.insts, c.data); (err == nil) != c.ok {
			t.Errorf("CheckLayout(%d, %d) = %v, want ok=%v", c.insts, c.data, err, c.ok)
		}
	}

	b := NewBuilder("long")
	for range maxInsts {
		b.Nop()
	}
	if _, err := b.Build(); err != nil {
		t.Errorf("full text refused: %v", err)
	}
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("text past DataBase built")
	}
}

func TestLiExpansion(t *testing.T) {
	cases := []struct {
		v       int64
		numInst int
	}{
		{0, 1},
		{42, 1},
		{-1, 1},
		{1 << 31, 2}, // does not fit in sign-extended imm32
		{-(1 << 40), 2},
		{0x7FFF_FFFF, 1},
		{int64(^uint64(0) >> 1), 2}, // MaxInt64
	}
	for _, c := range cases {
		b := NewBuilder("li")
		b.Li(5, c.v)
		if b.Len() != c.numInst {
			t.Errorf("Li(%#x) emitted %d instructions, want %d", c.v, b.Len(), c.numInst)
		}
		// Verify the sequence computes the right value.
		var r5 uint64
		for _, in := range b.MustBuild().Text {
			r5 = isa.Eval(in.Op, in.Imm, r5, 0)
		}
		if r5 != uint64(c.v) {
			t.Errorf("Li(%#x) computed %#x", c.v, r5)
		}
	}
}

func TestLaAbsolute(t *testing.T) {
	b := NewBuilder("la")
	b.La(3, "target")
	b.Nop()
	b.Label("target")
	b.Halt()
	p := b.MustBuild()
	want := int32(TextBase + 2*isa.InstBytes)
	if p.Text[0].Imm != want {
		t.Errorf("La imm = %d, want %d", p.Text[0].Imm, want)
	}
}

func TestDataSegment(t *testing.T) {
	b := NewBuilder("data")
	a1 := b.Word(0x1111, 0x2222)
	a2 := b.Float(2.5)
	a3 := b.Alloc(24)
	b.Halt()
	p := b.MustBuild()

	if a1 != DataBase {
		t.Errorf("first word at %#x, want %#x", a1, DataBase)
	}
	if a2 != DataBase+16 {
		t.Errorf("float at %#x, want %#x", a2, DataBase+16)
	}
	if a3 != DataBase+24 {
		t.Errorf("alloc at %#x, want %#x", a3, DataBase+24)
	}
	if len(p.Data) != 48 {
		t.Errorf("data length %d, want 48", len(p.Data))
	}

	m := mem.New()
	p.LoadInto(m)
	if got := m.Read(a1+8, 8); got != 0x2222 {
		t.Errorf("loaded word = %#x, want 0x2222", got)
	}
	if got := isa.B2F(m.Read(a2, 8)); got != 2.5 {
		t.Errorf("loaded float = %g, want 2.5", got)
	}
}

func TestAlignment(t *testing.T) {
	b := NewBuilder("align")
	b.data = append(b.data, 1, 2, 3) // 3 unaligned bytes
	addr := b.Word(7)
	if addr%8 != 0 {
		t.Errorf("Word returned unaligned address %#x", addr)
	}
}

func TestLoadIntoRoundTrip(t *testing.T) {
	b := NewBuilder("rt")
	b.Li(1, 7)
	b.R(isa.OpAdd, 2, 1, 1)
	b.Store(isa.OpSd, 2, 0, int32(DataBase))
	b.Halt()
	p := b.MustBuild()

	m := mem.New()
	entry := p.LoadInto(m)
	if entry != TextBase {
		t.Fatalf("entry = %#x, want %#x", entry, TextBase)
	}
	for i, want := range p.Text {
		got := isa.Decode(m.Read(TextBase+uint64(i)*isa.InstBytes, isa.InstBytes))
		if got != want {
			t.Errorf("inst %d: loaded %v, want %v", i, got, want)
		}
	}
	if p.TextEnd() != TextBase+uint64(len(p.Text))*isa.InstBytes {
		t.Errorf("TextEnd = %#x", p.TextEnd())
	}
}

func TestEmitHelpers(t *testing.T) {
	b := NewBuilder("h")
	b.R(isa.OpAdd, 1, 2, 3)
	b.I(isa.OpAddi, 1, 2, 5)
	b.Load(isa.OpLd, 4, 30, 8)
	b.Store(isa.OpSw, 4, 30, 12)
	b.Out(4)
	b.Jal(isa.RegLink, "f")
	b.Label("f")
	b.Emit(isa.Inst{Op: isa.OpJr, Rs1: isa.RegLink})
	b.Halt()
	p := b.MustBuild()
	want := []isa.Inst{
		{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: isa.OpAddi, Rd: 1, Rs1: 2, Imm: 5},
		{Op: isa.OpLd, Rd: 4, Rs1: 30, Imm: 8},
		{Op: isa.OpSw, Rs1: 30, Rs2: 4, Imm: 12},
		{Op: isa.OpOut, Rs1: 4},
		{Op: isa.OpJal, Rd: isa.RegLink, Imm: 8},
		{Op: isa.OpJr, Rs1: isa.RegLink},
		{Op: isa.OpHalt},
	}
	if len(p.Text) != len(want) {
		t.Fatalf("got %d instructions, want %d", len(p.Text), len(want))
	}
	for i := range want {
		if p.Text[i] != want[i] {
			t.Errorf("inst %d = %v, want %v", i, p.Text[i], want[i])
		}
	}
}
