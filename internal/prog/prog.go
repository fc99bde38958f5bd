// Package prog defines the loadable program image shared by the
// assembler, the workload generators and the simulators, plus a
// programmatic Builder for constructing SRISC programs with labels.
package prog

import (
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Memory layout. Text, data and stack live in widely separated segments
// of the sparse memory.
const (
	// TextBase is where the first instruction is loaded; it is also the
	// entry point.
	TextBase = 0x0000_1000
	// DataBase is the start of the static data segment.
	DataBase = 0x0010_0000
	// StackTop is the initial value of the stack pointer (r30); the stack
	// grows down.
	StackTop = 0x0800_0000
)

// Program is a loadable SRISC program image. Its fields must not change
// once the program is first loaded: every load maps the same read-only
// memory image, built from them once.
type Program struct {
	// Name identifies the program in stats output.
	Name string
	// Text holds the decoded instructions, loaded contiguously at TextBase.
	Text []isa.Inst
	// Data is the initial contents of the data segment at DataBase.
	// Its whole pages back the image's shared pages without a copy, so
	// it must never be written.
	Data []byte
	// Symbols maps labels to absolute addresses (text or data).
	Symbols map[string]uint64

	imageOnce sync.Once
	image     *mem.Image
}

// Entry returns the address of the first instruction.
func (p *Program) Entry() uint64 { return TextBase }

// TextEnd returns the first address past the text segment.
func (p *Program) TextEnd() uint64 {
	return TextBase + uint64(len(p.Text))*isa.InstBytes
}

// Image returns the program's read-only memory image, built on first
// use and shared by every later call. The text pages and the last
// partial data page are copied into it; every whole data page aliases
// Data.
func (p *Program) Image() *mem.Image {
	p.imageOnce.Do(func() {
		m := mem.New()
		for i, in := range p.Text {
			m.Write(TextBase+uint64(i)*isa.InstBytes, isa.InstBytes, isa.Encode(in))
		}
		m.ShareBytes(DataBase, p.Data)
		p.image = m.Freeze()
	})
	return p.image
}

// LoadInto maps the program image into m, which should be empty (new
// or Reset), and returns the initial PC. It copies no bytes: a store
// copies the page it lands on. The stack pointer convention (r30 =
// StackTop) is established by the simulators, not the image.
func (p *Program) LoadInto(m *mem.Memory) uint64 {
	m.Map(p.Image())
	return p.Entry()
}

// Builder incrementally constructs a Program. Control-flow targets are
// symbolic labels resolved at Build time. The zero value is not ready to
// use; call NewBuilder.
type Builder struct {
	name   string
	insts  []isa.Inst
	labels map[string]int // label -> instruction index
	fixups []fixup
	data   []byte
	errs   []error
}

type fixupKind uint8

const (
	fixRelative fixupKind = iota // imm = byte offset from the instruction
	fixAbsolute                  // imm = absolute text address of the label
)

type fixup struct {
	inst  int
	label string
	kind  fixupKind
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int)}
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.insts) }

// Label defines name at the current text position. Redefinition is an
// error reported by Build.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("prog: duplicate label %q", name))
		return
	}
	b.labels[name] = len(b.insts)
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) { b.insts = append(b.insts, in) }

// R emits a three-register-operand instruction rd = rs1 op rs2.
func (b *Builder) R(op isa.Op, rd, rs1, rs2 uint8) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// I emits a register-immediate instruction rd = rs1 op imm.
func (b *Builder) I(op isa.Op, rd, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Li materialises a 64-bit constant in rd, using one instruction when the
// constant fits in a sign-extended 32-bit immediate and a lih/ori pair
// otherwise.
func (b *Builder) Li(rd uint8, v int64) {
	if int64(int32(v)) == v {
		b.I(isa.OpLi, rd, 0, int32(v))
		return
	}
	b.I(isa.OpLih, rd, 0, int32(uint64(v)>>32))
	b.I(isa.OpOri, rd, rd, int32(uint32(v)))
}

// La materialises the absolute address of label in rd; the label may be
// defined later.
func (b *Builder) La(rd uint8, label string) {
	b.fixups = append(b.fixups, fixup{inst: len(b.insts), label: label, kind: fixAbsolute})
	b.I(isa.OpLi, rd, 0, 0)
}

// Branch emits a conditional branch to label.
func (b *Builder) Branch(op isa.Op, rs1, rs2 uint8, label string) {
	b.fixups = append(b.fixups, fixup{inst: len(b.insts), label: label, kind: fixRelative})
	b.Emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

// Jump emits an unconditional jump to label.
func (b *Builder) Jump(label string) {
	b.fixups = append(b.fixups, fixup{inst: len(b.insts), label: label, kind: fixRelative})
	b.Emit(isa.Inst{Op: isa.OpJ})
}

// Jal emits a call to label, linking in rd.
func (b *Builder) Jal(rd uint8, label string) {
	b.fixups = append(b.fixups, fixup{inst: len(b.insts), label: label, kind: fixRelative})
	b.Emit(isa.Inst{Op: isa.OpJal, Rd: rd})
}

// Load emits a load of the given width: rd = mem[rs1+imm].
func (b *Builder) Load(op isa.Op, rd, base uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: base, Imm: imm})
}

// Store emits a store of the given width: mem[rs1+imm] = rs2.
func (b *Builder) Store(op isa.Op, val, base uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rs1: base, Rs2: val, Imm: imm})
}

// Halt emits the halt instruction.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.OpHalt}) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.OpNop}) }

// Out emits an output of rs1 to the machine's output stream.
func (b *Builder) Out(rs uint8) { b.Emit(isa.Inst{Op: isa.OpOut, Rs1: rs}) }

// Align pads the data segment to the given power-of-two boundary.
func (b *Builder) Align(n int) {
	for len(b.data)%n != 0 {
		b.data = append(b.data, 0)
	}
}

// Word appends 64-bit little-endian values to the data segment and returns
// the address of the first.
func (b *Builder) Word(vals ...uint64) uint64 {
	b.Align(8)
	addr := DataBase + uint64(len(b.data))
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			b.data = append(b.data, byte(v))
			v >>= 8
		}
	}
	return addr
}

// Float appends float64 values to the data segment and returns the address
// of the first.
func (b *Builder) Float(vals ...float64) uint64 {
	words := make([]uint64, len(vals))
	for i, f := range vals {
		words[i] = isa.F2B(f)
	}
	return b.Word(words...)
}

// Alloc reserves n zeroed bytes in the data segment, 8-byte aligned, and
// returns their address.
func (b *Builder) Alloc(n int) uint64 {
	b.Align(8)
	addr := DataBase + uint64(len(b.data))
	b.data = append(b.data, make([]byte, n)...)
	return addr
}

// Build resolves labels and returns the finished program.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	syms := make(map[string]uint64, len(b.labels))
	for name, idx := range b.labels {
		syms[name] = TextBase + uint64(idx)*isa.InstBytes
	}
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("prog: undefined label %q", f.label)
		}
		switch f.kind {
		case fixRelative:
			b.insts[f.inst].Imm = int32((idx - f.inst) * isa.InstBytes)
		case fixAbsolute:
			addr := TextBase + uint64(idx)*isa.InstBytes
			if addr > 0x7FFF_FFFF {
				return nil, fmt.Errorf("prog: label %q address %#x exceeds immediate range", f.label, addr)
			}
			b.insts[f.inst].Imm = int32(addr)
		}
	}
	return &Program{
		Name:    b.name,
		Text:    append([]isa.Inst(nil), b.insts...),
		Data:    append([]byte(nil), b.data...),
		Symbols: syms,
	}, nil
}

// MustBuild is Build that panics on error; intended for statically known
// correct programs in tests and examples.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
