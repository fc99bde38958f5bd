// Package asm implements a two-pass text assembler for SRISC.
//
// The syntax is conventional:
//
//	; sum the first n integers
//	.data
//	n:      .word 100
//	.text
//	start:  la   r1, n
//	        ld   r1, 0(r1)
//	        li   r3, 0
//	loop:   add  r3, r3, r1
//	        addi r1, r1, -1
//	        bne  r1, r0, loop
//	        out  r3
//	        halt
//
// Comments start with ';' or '#'. Labels end with ':' and may share a line
// with an instruction or directive. Registers are r0..r31 and f0..f31,
// with aliases zero (r0), sp (r30) and ra (r31). Immediates are decimal or
// 0x-prefixed hex. Directives: .text, .data, .word, .float, .space,
// .align. The pseudo-instruction li64 materialises a full 64-bit constant
// as a lih/ori pair, and la loads the address of a label. Every other
// instruction takes the operands isa.Op.Args lists, the same list
// isa.Inst.String prints, so every disassembly reassembles to the
// instruction it came from.
//
// A program must fit the memory layout of package prog: its text ends at
// or below prog.DataBase, so at most 130,560 instructions, and its data
// ends at or below prog.StackTop, so at most 133,169,152 bytes. The
// assembler checks both limits before it grows either segment.
package asm

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Error describes an assembly error with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section int

const (
	secText section = iota
	secData
)

// item is a parsed source statement awaiting label resolution.
type item struct {
	line   int
	mnem   string
	args   []string
	nInsts int // instructions this item expands to
}

type assembler struct {
	name   string
	items  []item
	labels map[string]uint64 // absolute addresses (text or data)

	textLen int // instructions so far (pass 1)
	data    []byte

	insts []isa.Inst
}

// Assemble translates SRISC assembly source into a loadable program.
func Assemble(name, src string) (*prog.Program, error) {
	a := &assembler{name: name, labels: make(map[string]uint64)}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	if err := a.pass2(); err != nil {
		return nil, err
	}
	return &prog.Program{
		Name:    name,
		Text:    a.insts,
		Data:    a.data,
		Symbols: a.labels,
	}, nil
}

// pass1 tokenises, assigns label addresses and lays out the data segment.
func (a *assembler) pass1(src string) error {
	sec := secText
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		// Peel off any labels.
		for {
			i := strings.Index(line, ":")
			if i < 0 || strings.ContainsAny(line[:i], " \t") {
				break
			}
			label := strings.TrimSpace(line[:i])
			if !validLabel(label) {
				return &Error{lineNo + 1, fmt.Sprintf("invalid label %q", label)}
			}
			if _, dup := a.labels[label]; dup {
				return &Error{lineNo + 1, fmt.Sprintf("duplicate label %q", label)}
			}
			if sec == secText {
				a.labels[label] = prog.TextBase + uint64(a.textLen)*isa.InstBytes
			} else {
				a.labels[label] = prog.DataBase + uint64(len(a.data))
			}
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		mnem, rest, _ := strings.Cut(line, " ")
		mnem = strings.ToLower(strings.TrimSpace(mnem))
		args := splitArgs(rest)

		switch mnem {
		case ".text":
			sec = secText
			continue
		case ".data":
			sec = secData
			continue
		case ".word", ".float", ".space", ".align":
			if sec != secData {
				return &Error{lineNo + 1, mnem + " outside .data section"}
			}
			if err := a.layoutData(lineNo+1, mnem, args); err != nil {
				return err
			}
			continue
		}
		if sec != secText {
			return &Error{lineNo + 1, fmt.Sprintf("instruction %q in .data section", mnem)}
		}
		n := 1
		if mnem == "li64" {
			n = 2
		}
		if err := prog.CheckLayout(uint64(a.textLen+n), uint64(len(a.data))); err != nil {
			return &Error{lineNo + 1, err.Error()}
		}
		a.items = append(a.items, item{line: lineNo + 1, mnem: mnem, args: args, nInsts: n})
		a.textLen += n
	}
	return nil
}

func (a *assembler) layoutData(line int, mnem string, args []string) error {
	switch mnem {
	case ".word", ".float":
		if err := a.align(line, 8); err != nil {
			return err
		}
		for _, s := range args {
			var v uint64
			if mnem == ".word" {
				i, err := parseInt(s)
				if err != nil {
					return &Error{line, err.Error()}
				}
				v = uint64(i)
			} else {
				f, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return &Error{line, fmt.Sprintf("bad float %q", s)}
				}
				v = isa.F2B(f)
			}
			b, err := a.grow(line, 8)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(b, v)
		}
	case ".space":
		if len(args) != 1 {
			return &Error{line, ".space wants one size argument"}
		}
		n, err := parseInt(args[0])
		if err != nil || n < 0 {
			return &Error{line, fmt.Sprintf("bad size %q", args[0])}
		}
		_, err = a.grow(line, uint64(n))
		return err
	case ".align":
		if len(args) != 1 {
			return &Error{line, ".align wants one argument"}
		}
		n, err := parseInt(args[0])
		if err != nil || n <= 0 {
			return &Error{line, fmt.Sprintf("bad alignment %q", args[0])}
		}
		return a.align(line, uint64(n))
	}
	return nil
}

// grow checks that n more bytes fit the data segment, then appends them
// zeroed and returns them.
func (a *assembler) grow(line int, n uint64) ([]byte, error) {
	if err := prog.CheckLayout(uint64(a.textLen), uint64(len(a.data))+n); err != nil {
		return nil, &Error{line, err.Error()}
	}
	a.data = append(a.data, make([]byte, n)...)
	return a.data[uint64(len(a.data))-n:], nil
}

// align pads the data segment to a multiple of n bytes in one step.
func (a *assembler) align(line int, n uint64) error {
	_, err := a.grow(line, (n-uint64(len(a.data))%n)%n)
	return err
}

// pass2 encodes instructions with all labels known.
func (a *assembler) pass2() error {
	pc := uint64(prog.TextBase)
	for _, it := range a.items {
		insts, err := a.encode(it, pc)
		if err != nil {
			return err
		}
		if len(insts) != it.nInsts {
			return &Error{it.line, fmt.Sprintf("internal: %q expanded to %d instructions, expected %d",
				it.mnem, len(insts), it.nInsts)}
		}
		a.insts = append(a.insts, insts...)
		pc += uint64(len(insts)) * isa.InstBytes
	}
	return nil
}

func (a *assembler) encode(it item, pc uint64) ([]isa.Inst, error) {
	fail := func(format string, args ...any) ([]isa.Inst, error) {
		return nil, &Error{it.line, fmt.Sprintf(format, args...)}
	}
	want := func(n int) error {
		if len(it.args) != n {
			return &Error{it.line, fmt.Sprintf("%s wants %d operands, got %d", it.mnem, n, len(it.args))}
		}
		return nil
	}

	// Pseudo-instructions first.
	switch it.mnem {
	case "li64", "la":
		if err := want(2); err != nil {
			return nil, err
		}
		rd, err := parseReg(it.args[0])
		if err != nil {
			return fail("%v", err)
		}
		if it.mnem == "la" {
			// Every label lies below prog.StackTop, so its address
			// fits the immediate.
			addr, ok := a.labels[it.args[1]]
			if !ok {
				return fail("undefined label %q", it.args[1])
			}
			return []isa.Inst{{Op: isa.OpLi, Rd: rd, Imm: int32(addr)}}, nil
		}
		v, err := parseInt(it.args[1])
		if err != nil {
			return fail("%v", err)
		}
		return []isa.Inst{
			{Op: isa.OpLih, Rd: rd, Imm: int32(uint64(v) >> 32)},
			{Op: isa.OpOri, Rd: rd, Rs1: rd, Imm: int32(uint32(v))},
		}, nil
	}

	op, ok := isa.OpByName(it.mnem)
	if !ok {
		return fail("unknown instruction %q", it.mnem)
	}
	args := op.Args()
	if err := want(len(args)); err != nil {
		return nil, err
	}
	in := isa.Inst{Op: op}
	for i, arg := range args {
		s := it.args[i]
		var err error
		switch arg {
		case isa.ArgRd:
			in.Rd, err = parseReg(s)
		case isa.ArgRs1:
			in.Rs1, err = parseReg(s)
		case isa.ArgRs2:
			in.Rs2, err = parseReg(s)
		case isa.ArgImm:
			in.Imm, err = parseImm(s)
		case isa.ArgTarget:
			in.Imm, err = a.branchTarget(s, pc)
		case isa.ArgMem:
			in.Imm, in.Rs1, err = parseMemOperand(s)
		}
		if err != nil {
			return fail("%v", err)
		}
	}
	return []isa.Inst{in}, nil
}

// branchTarget resolves a label or literal offset to a PC-relative byte
// immediate. Every label lies below prog.StackTop, so a label's offset
// fits in 32 bits.
func (a *assembler) branchTarget(arg string, pc uint64) (int32, error) {
	if addr, ok := a.labels[arg]; ok {
		return int32(int64(addr) - int64(pc)), nil
	}
	if _, err := parseInt(arg); err != nil {
		return 0, fmt.Errorf("undefined label or bad offset %q", arg)
	}
	return parseImm(arg)
}

var regAliases = map[string]uint8{
	"zero": isa.RegZero,
	"sp":   isa.RegSP,
	"ra":   isa.RegLink,
}

func parseReg(s string) (uint8, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if r, ok := regAliases[s]; ok {
		return r, nil
	}
	if len(s) >= 2 && (s[0] == 'r' || s[0] == 'f') {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < 32 {
			if s[0] == 'r' {
				return uint8(n), nil
			}
			return uint8(n + isa.FPBase), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

// parseMemOperand parses "imm(reg)" or "(reg)".
func parseMemOperand(s string) (imm int32, base uint8, err error) {
	s = strings.TrimSpace(s)
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q (want imm(reg))", s)
	}
	if open > 0 {
		if imm, err = parseImm(s[:open]); err != nil {
			return 0, 0, err
		}
	}
	base, err = parseReg(s[open+1 : len(s)-1])
	return imm, base, err
}

// parseImm parses an integer that must fit a 32-bit immediate.
func parseImm(s string) (int32, error) {
	v, err := parseInt(s)
	if err != nil {
		return 0, err
	}
	if int64(int32(v)) != v {
		return 0, fmt.Errorf("immediate %d does not fit in 32 bits", v)
	}
	return int32(v), nil
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
