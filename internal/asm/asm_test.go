package asm

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/prog"
)

func mustAssemble(t *testing.T, src string) *prog.Program {
	t.Helper()
	p, err := Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, src string) *funcsim.Machine {
	t.Helper()
	m := funcsim.New(mustAssemble(t, src))
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSumProgram(t *testing.T) {
	m := run(t, `
; sum the first n integers
.data
n:      .word 100
.text
start:  la   r1, n
        ld   r1, 0(r1)
        li   r3, 0
loop:   add  r3, r3, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        out  r3
        halt
`)
	if len(m.Output) != 1 || m.Output[0] != 5050 {
		t.Errorf("output = %v, want [5050]", m.Output)
	}
}

func TestAllFormsAssemble(t *testing.T) {
	src := `
.data
val:    .word 7
vec:    .float 1.5, -2.5
buf:    .space 16
        .align 64
big:    .word 0x123456789
.text
        nop
        la   r1, val
        ld   r2, 0(r1)
        lw   r3, 0(r1)
        lb   r4, (r1)
        sd   r2, 8(r1)
        sw   r2, 8(r1)
        sb   r2, 8(r1)
        fld  f1, 0(r1)
        fsd  f1, 0(r1)
        add  r5, r2, r3
        addi r5, r5, -12
        mul  r6, r5, r5
        div  r7, r6, r5
        rem  r8, r6, r5
        and  r9, r8, r7
        andi r9, r8, 0xFF
        sll  r10, r9, r2
        slli r10, r9, 3
        slt  r11, r10, r9
        slti r11, r10, 5
        li   r12, -42
        lih  r13, 1
        li64 r14, 0x123456789ABCDEF0
        fadd f2, f1, f1
        fmul f3, f2, f2
        fdiv f4, f3, f2
        fsqrt f5, f4
        feq  r15, f4, f5
        cvtif f6, r15
        cvtfi r16, f6
        movif f7, r16
        movfi r17, f7
        beq  r0, r0, fwd
        sub  r18, r17, r16
fwd:    bne  r0, r1, next
next:   blt  r0, r1, n2
n2:     bge  r1, r0, n3
n3:     jal  ra, sub1
        j    end
sub1:   jr   ra
        jalr r20, ra
end:    out  r5
        halt
`
	p := mustAssemble(t, src)
	// li64 expands to two instructions; everything else is one.
	m := funcsim.New(p)
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted {
		t.Error("program did not halt")
	}
}

func TestLi64(t *testing.T) {
	m := run(t, `
.text
    li64 r1, 0x123456789ABCDEF0
    out  r1
    li64 r2, -1
    out  r2
    halt
`)
	if m.Output[0] != 0x123456789ABCDEF0 {
		t.Errorf("li64 = %#x", m.Output[0])
	}
	if m.Output[1] != ^uint64(0) {
		t.Errorf("li64(-1) = %#x", m.Output[1])
	}
}

func TestRegisterAliases(t *testing.T) {
	p := mustAssemble(t, `
.text
    add r1, sp, zero
    jal ra, next
next:
    halt
`)
	if p.Text[0].Rs1 != isa.RegSP || p.Text[0].Rs2 != isa.RegZero {
		t.Errorf("aliases: %v", p.Text[0])
	}
	if p.Text[1].Rd != isa.RegLink {
		t.Errorf("ra alias: %v", p.Text[1])
	}
}

func TestFPRegisters(t *testing.T) {
	p := mustAssemble(t, ".text\n fadd f1, f2, f31\n halt")
	in := p.Text[0]
	if in.Rd != isa.FPBase+1 || in.Rs1 != isa.FPBase+2 || in.Rs2 != isa.FPBase+31 {
		t.Errorf("fp regs: %v", in)
	}
}

func TestBranchLiteralOffset(t *testing.T) {
	p := mustAssemble(t, ".text\n beq r0, r0, 16\n nop\n halt")
	if p.Text[0].Imm != 16 {
		t.Errorf("literal offset = %d", p.Text[0].Imm)
	}
}

func TestDataLayout(t *testing.T) {
	p := mustAssemble(t, `
.data
a:  .word 1
b:  .float 2.0
c:  .space 3
    .align 8
d:  .word 4
.text
    halt
`)
	if p.Symbols["a"] != prog.DataBase {
		t.Errorf("a at %#x", p.Symbols["a"])
	}
	if p.Symbols["b"] != prog.DataBase+8 {
		t.Errorf("b at %#x", p.Symbols["b"])
	}
	if p.Symbols["c"] != prog.DataBase+16 {
		t.Errorf("c at %#x", p.Symbols["c"])
	}
	if p.Symbols["d"] != prog.DataBase+24 {
		t.Errorf("d at %#x (align)", p.Symbols["d"])
	}
	if len(p.Data) != 32 {
		t.Errorf("data length = %d", len(p.Data))
	}
}

func TestMultipleLabelsOneLine(t *testing.T) {
	p := mustAssemble(t, ".text\nfoo: bar: halt")
	if p.Symbols["foo"] != p.Symbols["bar"] || p.Symbols["foo"] != prog.TextBase {
		t.Errorf("labels: foo=%#x bar=%#x", p.Symbols["foo"], p.Symbols["bar"])
	}
}

// errorCases are sources the assembler must refuse, each with a piece
// of its error message. FuzzAssemble seeds from them too.
var errorCases = []struct {
	name, src, want string
}{
	{"unknown op", ".text\n frobnicate r1, r2\n", "unknown instruction"},
	{"bad reg", ".text\n add r1, r99, r2\n", "bad register"},
	{"bad operand count", ".text\n add r1, r2\n", "wants 3 operands"},
	{"undefined label", ".text\n j nowhere\n", "undefined label"},
	{"duplicate label", ".text\nx: nop\nx: nop\n", "duplicate label"},
	{"inst in data", ".data\n add r1, r2, r3\n", "in .data section"},
	{"word in text", ".text\n .word 5\n", "outside .data"},
	{"bad label char", ".text\n1bad: nop\n", "invalid label"},
	{"li too big", ".text\n li r1, 0x100000000\n", "does not fit"},
	{"bad mem operand", ".text\n ld r1, r2\n", "bad memory operand"},
	{"bad int", ".data\n .word xyz\n", "bad integer"},
	{"bad float", ".data\n .float abc\n", "bad float"},
	{"space past stack top", ".data\n .space 133169153\n", "runs past the stack top"},
	{"align past stack top", ".data\n .word 1\n .align 133169153\n", "runs past the stack top"},
	{"text into data", strings.Repeat("addi r1, r1, 1\n", 130561) + "halt\n.data\nx: .word 7\n",
		"runs past the data segment"},
}

func TestErrors(t *testing.T) {
	for _, c := range errorCases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble("e", c.src)
			if err == nil {
				t.Fatalf("no error for %.80q", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err.Error(), c.want)
			}
		})
	}
}

func TestErrorLineNumbers(t *testing.T) {
	_, err := Assemble("e", ".text\n nop\n nop\n bogus r1\n")
	aerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if aerr.Line != 4 {
		t.Errorf("error line = %d, want 4", aerr.Line)
	}
}

// TestAgainstBuilder cross-checks the assembler against the programmatic
// builder on an identical program.
func TestAgainstBuilder(t *testing.T) {
	src := `
.text
start:  li   r1, 10
        li   r2, 0
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        out  r2
        halt
`
	p1 := mustAssemble(t, src)

	b := prog.NewBuilder("test")
	b.Label("start")
	b.Li(1, 10)
	b.Li(2, 0)
	b.Label("loop")
	b.R(isa.OpAdd, 2, 2, 1)
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Out(2)
	b.Halt()
	p2 := b.MustBuild()

	if len(p1.Text) != len(p2.Text) {
		t.Fatalf("lengths differ: %d vs %d", len(p1.Text), len(p2.Text))
	}
	for i := range p1.Text {
		if p1.Text[i] != p2.Text[i] {
			t.Errorf("inst %d: %v vs %v", i, p1.Text[i], p2.Text[i])
		}
	}
}

func TestHexAndNegative(t *testing.T) {
	m := run(t, `
.text
    li r1, 0xFF
    li r2, -0x10
    add r3, r1, r2
    out r3
    halt
`)
	if m.Output[0] != 0xEF {
		t.Errorf("0xFF - 0x10 = %#x", m.Output[0])
	}
}

// TestDisassemblyRoundTrip: for every opcode, the disassembly printed by
// isa.Inst.String() is valid assembler input that re-encodes to the
// identical instruction. Registers are drawn from 0..63 and immediates
// from the whole int32 range, for the operands op.Args() lists; the
// assembler leaves every other field zero.
func TestDisassemblyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for op := isa.Op(0); op < isa.NumOps; op++ {
		for range 20 {
			want := isa.Inst{Op: op}
			for _, arg := range op.Args() {
				switch arg {
				case isa.ArgRd:
					want.Rd = uint8(rng.Intn(isa.NumRegs))
				case isa.ArgRs1:
					want.Rs1 = uint8(rng.Intn(isa.NumRegs))
				case isa.ArgRs2:
					want.Rs2 = uint8(rng.Intn(isa.NumRegs))
				case isa.ArgImm, isa.ArgTarget:
					want.Imm = int32(rng.Uint32())
				case isa.ArgMem:
					want.Imm = int32(rng.Uint32())
					want.Rs1 = uint8(rng.Intn(isa.NumRegs))
				}
			}
			src := ".text\n" + want.String() + "\n"
			p, err := Assemble("rt", src)
			if err != nil {
				t.Errorf("%v: disassembly %q does not assemble: %v", want.Op, want.String(), err)
				continue
			}
			if len(p.Text) != 1 {
				t.Errorf("%q assembled to %d instructions", want.String(), len(p.Text))
				continue
			}
			if p.Text[0] != want {
				t.Errorf("round trip %q: got %+v, want %+v", want.String(), p.Text[0], want)
			}
		}
	}
}

// TestLayoutLimits: text may fill the space up to DataBase; an li64
// that needs one slot more, or one data byte past StackTop, is refused
// at the line that asks for it. prog's TestCheckLayout pins the data
// limit itself without allocating it.
func TestLayoutLimits(t *testing.T) {
	const maxInsts = (prog.DataBase - prog.TextBase) / isa.InstBytes
	const maxData = prog.StackTop - prog.DataBase
	p := mustAssemble(t, strings.Repeat("nop\n", maxInsts-1)+"end: halt\n")
	if len(p.Text) != maxInsts || p.Symbols["end"] != prog.DataBase-isa.InstBytes {
		t.Errorf("full text: %d insts, end at %#x", len(p.Text), p.Symbols["end"])
	}
	for _, c := range []struct {
		src  string
		line int
	}{
		{strings.Repeat("nop\n", maxInsts-1) + "li64 r1, 5\n", maxInsts},
		{".data\n.word 7\n.space " + strconv.Itoa(maxData-7) + "\n", 3},
		{".data\n.space 1\n.float 1.5\n.align " + strconv.Itoa(maxData+1) + "\n", 4},
	} {
		_, err := Assemble("e", c.src)
		aerr, ok := err.(*Error)
		if !ok || aerr.Line != c.line || !strings.Contains(aerr.Msg, "runs past") {
			t.Errorf("%.40q...: error %v, want a layout error at line %d", c.src, err, c.line)
		}
	}
}

// TestRegNamesAllParse: every register name that RegName can print is
// accepted by the assembler's register parser.
func TestRegNamesAllParse(t *testing.T) {
	for r := uint8(0); r < isa.NumRegs; r++ {
		got, err := parseReg(isa.RegName(r))
		if err != nil || got != r {
			t.Errorf("parseReg(%q) = %d, %v", isa.RegName(r), got, err)
		}
	}
}
