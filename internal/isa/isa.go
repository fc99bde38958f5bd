// Package isa defines SRISC, the 64-bit load/store RISC instruction set
// used by the simulators in this repository.
//
// SRISC plays the role PISA plays for SimpleScalar: a simple, regular
// target that exposes the same operation classes (integer ALU, integer
// multiply/divide, floating-point add/multiply/divide, loads, stores and
// branches) that the paper's Table 1 machine provides functional units for.
//
// The register file has 32 integer registers (r0 is hardwired to zero) and
// 32 floating-point registers. Architectural register indices occupy a
// single 64-entry namespace: integer registers are 0..31 and floating-point
// registers are 32..63, which lets the rename logic use one map table, as
// the paper's design requires.
//
// Instructions are fixed-width 64-bit words (see Encode) and the PC
// advances by InstBytes. Immediates are 32-bit and sign-extended.
package isa

import (
	"fmt"
	"strconv"
)

// Register file layout.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs

	// RegZero is hardwired to zero; writes to it are discarded.
	RegZero = 0
	// RegSP is the conventional stack pointer.
	RegSP = 30
	// RegLink is the conventional link register used by JAL.
	RegLink = 31
	// FPBase is the architectural index of f0.
	FPBase = NumIntRegs
)

// InstBytes is the size of one encoded instruction in memory.
const InstBytes = 8

// Op enumerates SRISC opcodes.
type Op uint8

const (
	OpNop Op = iota
	OpHalt
	// OpOut appends the integer value of rs1 to the machine's output
	// stream. It exists so example programs have an observable,
	// deterministic effect besides final memory state.
	OpOut

	// Integer ALU (latency 1).
	OpAdd
	OpSub
	OpAddi
	OpAnd
	OpOr
	OpXor
	OpAndi
	OpOri
	OpXori
	OpSll
	OpSrl
	OpSra
	OpSlli
	OpSrli
	OpSrai
	OpSlt
	OpSltu
	OpSlti
	OpLi  // rd = signext(imm)
	OpLih // rd = imm << 32 (load immediate high)

	// Integer multiply/divide.
	OpMul
	OpDiv
	OpRem

	// Memory.
	OpLd // load 64-bit
	OpLw // load 32-bit, sign-extended
	OpLb // load 8-bit, sign-extended
	OpSd // store 64-bit
	OpSw // store 32-bit
	OpSb // store 8-bit
	OpFld
	OpFsd

	// Control flow. Conditional branch targets are PC-relative byte
	// offsets; Jr/Jalr jump to the value of rs1.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpJ
	OpJal
	OpJr
	OpJalr

	// Floating point (operands/results in FP registers).
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFsqrt
	OpFeq // rd (int) = rs1 == rs2
	OpFlt // rd (int) = rs1 < rs2
	OpFle // rd (int) = rs1 <= rs2
	OpCvtIF
	OpCvtFI
	OpMovIF // move raw bits, int reg -> fp reg
	OpMovFI // move raw bits, fp reg -> int reg

	NumOps
)

// Pool identifies the functional-unit pool that executes an operation,
// mirroring Table 1's functional unit mix.
type Pool uint8

const (
	PoolNone Pool = iota
	PoolIntALU
	PoolIntMult // integer multiply and divide share the IntMult units
	PoolFPAdd   // FP add/sub, compares and conversions
	PoolFPMult  // FP multiply, divide and sqrt share the FPMult unit
	PoolMemPort // D-cache ports, shared by loads and stores
	NumPools
)

// String returns a short name for the pool.
func (p Pool) String() string {
	switch p {
	case PoolNone:
		return "none"
	case PoolIntALU:
		return "int-alu"
	case PoolIntMult:
		return "int-mult"
	case PoolFPAdd:
		return "fp-add"
	case PoolFPMult:
		return "fp-mult"
	case PoolMemPort:
		return "mem-port"
	}
	return fmt.Sprintf("pool(%d)", uint8(p))
}

// MarshalText encodes a unit pool by its String name. PoolNone and
// out-of-range values name no physical unit and have no encoding.
func (p Pool) MarshalText() ([]byte, error) {
	if p == PoolNone || p >= NumPools {
		return nil, fmt.Errorf("unknown functional-unit pool %q", p)
	}
	return []byte(p.String()), nil
}

// UnmarshalText decodes a unit pool name: int-alu, int-mult, fp-add,
// fp-mult or mem-port.
func (p *Pool) UnmarshalText(text []byte) error {
	for q := PoolIntALU; q < NumPools; q++ {
		if q.String() == string(text) {
			*p = q
			return nil
		}
	}
	return fmt.Errorf("unknown functional-unit pool %q", text)
}

// OpInfo describes the static properties of an opcode.
type OpInfo struct {
	Name string
	Pool Pool
	// Latency in cycles from issue to result availability. Matches
	// SimpleScalar's defaults: intALU 1, intMult 3, intDiv 20, fpAdd 2,
	// fpMult 4, fpDiv 12, fpSqrt 24. Loads use 1 cycle for address
	// generation plus the cache access time modelled separately.
	Latency   int
	Pipelined bool

	ReadsRs1 bool
	ReadsRs2 bool
	WritesRd bool

	IsBranch bool // conditional control flow
	IsJump   bool // unconditional control flow
	IsLoad   bool
	IsStore  bool
	IsFP     bool
}

// IsCtrl reports whether the opcode changes control flow.
func (oi *OpInfo) IsCtrl() bool { return oi.IsBranch || oi.IsJump }

// IsMem reports whether the opcode accesses data memory.
func (oi *OpInfo) IsMem() bool { return oi.IsLoad || oi.IsStore }

var opInfos = [NumOps]OpInfo{
	OpNop:  {Name: "nop", Pool: PoolNone, Latency: 1, Pipelined: true},
	OpHalt: {Name: "halt", Pool: PoolNone, Latency: 1, Pipelined: true},
	OpOut:  {Name: "out", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true},

	OpAdd:  {Name: "add", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true},
	OpSub:  {Name: "sub", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true},
	OpAddi: {Name: "addi", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true},
	OpAnd:  {Name: "and", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true},
	OpOr:   {Name: "or", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true},
	OpXor:  {Name: "xor", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true},
	OpAndi: {Name: "andi", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true},
	OpOri:  {Name: "ori", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true},
	OpXori: {Name: "xori", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true},
	OpSll:  {Name: "sll", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true},
	OpSrl:  {Name: "srl", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true},
	OpSra:  {Name: "sra", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true},
	OpSlli: {Name: "slli", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true},
	OpSrli: {Name: "srli", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true},
	OpSrai: {Name: "srai", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true},
	OpSlt:  {Name: "slt", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true},
	OpSltu: {Name: "sltu", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true},
	OpSlti: {Name: "slti", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true},
	OpLi:   {Name: "li", Pool: PoolIntALU, Latency: 1, Pipelined: true, WritesRd: true},
	OpLih:  {Name: "lih", Pool: PoolIntALU, Latency: 1, Pipelined: true, WritesRd: true},

	OpMul: {Name: "mul", Pool: PoolIntMult, Latency: 3, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true},
	OpDiv: {Name: "div", Pool: PoolIntMult, Latency: 20, Pipelined: false, ReadsRs1: true, ReadsRs2: true, WritesRd: true},
	OpRem: {Name: "rem", Pool: PoolIntMult, Latency: 20, Pipelined: false, ReadsRs1: true, ReadsRs2: true, WritesRd: true},

	OpLd:  {Name: "ld", Pool: PoolMemPort, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true, IsLoad: true},
	OpLw:  {Name: "lw", Pool: PoolMemPort, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true, IsLoad: true},
	OpLb:  {Name: "lb", Pool: PoolMemPort, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true, IsLoad: true},
	OpSd:  {Name: "sd", Pool: PoolMemPort, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, IsStore: true},
	OpSw:  {Name: "sw", Pool: PoolMemPort, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, IsStore: true},
	OpSb:  {Name: "sb", Pool: PoolMemPort, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, IsStore: true},
	OpFld: {Name: "fld", Pool: PoolMemPort, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true, IsLoad: true, IsFP: true},
	OpFsd: {Name: "fsd", Pool: PoolMemPort, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, IsStore: true, IsFP: true},

	OpBeq: {Name: "beq", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, IsBranch: true},
	OpBne: {Name: "bne", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, IsBranch: true},
	OpBlt: {Name: "blt", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, IsBranch: true},
	OpBge: {Name: "bge", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, ReadsRs2: true, IsBranch: true},
	OpJ:   {Name: "j", Pool: PoolIntALU, Latency: 1, Pipelined: true, IsJump: true},
	OpJal: {Name: "jal", Pool: PoolIntALU, Latency: 1, Pipelined: true, WritesRd: true, IsJump: true},
	OpJr:  {Name: "jr", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, IsJump: true},
	OpJalr: {Name: "jalr", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true,
		IsJump: true},

	OpFadd:  {Name: "fadd", Pool: PoolFPAdd, Latency: 2, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true, IsFP: true},
	OpFsub:  {Name: "fsub", Pool: PoolFPAdd, Latency: 2, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true, IsFP: true},
	OpFmul:  {Name: "fmul", Pool: PoolFPMult, Latency: 4, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true, IsFP: true},
	OpFdiv:  {Name: "fdiv", Pool: PoolFPMult, Latency: 12, Pipelined: false, ReadsRs1: true, ReadsRs2: true, WritesRd: true, IsFP: true},
	OpFsqrt: {Name: "fsqrt", Pool: PoolFPMult, Latency: 24, Pipelined: false, ReadsRs1: true, WritesRd: true, IsFP: true},
	OpFeq:   {Name: "feq", Pool: PoolFPAdd, Latency: 2, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true, IsFP: true},
	OpFlt:   {Name: "flt", Pool: PoolFPAdd, Latency: 2, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true, IsFP: true},
	OpFle:   {Name: "fle", Pool: PoolFPAdd, Latency: 2, Pipelined: true, ReadsRs1: true, ReadsRs2: true, WritesRd: true, IsFP: true},
	OpCvtIF: {Name: "cvtif", Pool: PoolFPAdd, Latency: 2, Pipelined: true, ReadsRs1: true, WritesRd: true, IsFP: true},
	OpCvtFI: {Name: "cvtfi", Pool: PoolFPAdd, Latency: 2, Pipelined: true, ReadsRs1: true, WritesRd: true, IsFP: true},
	OpMovIF: {Name: "movif", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true},
	OpMovFI: {Name: "movfi", Pool: PoolIntALU, Latency: 1, Pipelined: true, ReadsRs1: true, WritesRd: true},
}

// Arg is one operand of an instruction's assembly syntax.
type Arg uint8

const (
	ArgRd     Arg = iota // destination register
	ArgRs1               // first source register
	ArgRs2               // second source register
	ArgImm               // 32-bit immediate
	ArgTarget            // PC-relative byte offset; a label in source
	ArgMem               // imm(rs1)
)

// Args returns the operands of op in assembly order. It is the one
// statement of SRISC operand syntax: Inst.String prints it and the
// assembler parses it. The slice is shared and must not be modified.
func (op Op) Args() []Arg { return opArgs[op] }

var opArgs = func() (t [NumOps][]Arg) {
	for op := Op(0); op < NumOps; op++ {
		oi := &opInfos[op]
		switch {
		case op == OpNop || op == OpHalt:
		case op == OpOut || op == OpJr:
			t[op] = []Arg{ArgRs1}
		case op == OpJ:
			t[op] = []Arg{ArgTarget}
		case op == OpJal:
			t[op] = []Arg{ArgRd, ArgTarget}
		case op == OpLi || op == OpLih:
			t[op] = []Arg{ArgRd, ArgImm}
		case oi.IsBranch:
			t[op] = []Arg{ArgRs1, ArgRs2, ArgTarget}
		case oi.IsLoad:
			t[op] = []Arg{ArgRd, ArgMem}
		case oi.IsStore:
			t[op] = []Arg{ArgRs2, ArgMem}
		case oi.ReadsRs2:
			t[op] = []Arg{ArgRd, ArgRs1, ArgRs2}
		// jalr and the unary register-to-register operations take no
		// immediate.
		case op == OpJalr || op == OpFsqrt || op == OpCvtIF || op == OpCvtFI || op == OpMovIF || op == OpMovFI:
			t[op] = []Arg{ArgRd, ArgRs1}
		default: // register-immediate
			t[op] = []Arg{ArgRd, ArgRs1, ArgImm}
		}
	}
	return t
}()

// Info returns the static description of op. It panics on an invalid
// opcode, which indicates a decoder bug rather than a recoverable error.
func Info(op Op) *OpInfo {
	if op >= NumOps {
		panic(fmt.Sprintf("isa: invalid opcode %d", op))
	}
	return &opInfos[op]
}

// String returns the mnemonic of the opcode.
func (op Op) String() string {
	if op >= NumOps {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opInfos[op].Name
}

// OpByName maps a mnemonic back to its opcode. The second result is false
// if the name is unknown.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}

var opsByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); op < NumOps; op++ {
		m[opInfos[op].Name] = op
	}
	return m
}()

// Inst is a decoded SRISC instruction. Register fields hold architectural
// indices in the unified 0..63 namespace.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32
}

// Info returns the static description of the instruction's opcode.
func (in Inst) Info() *OpInfo { return Info(in.Op) }

// Encode packs the instruction into a 64-bit word:
//
//	bits 63..56  opcode
//	bits 55..48  rd
//	bits 47..40  rs1
//	bits 39..32  rs2
//	bits 31..0   imm (two's complement)
func Encode(in Inst) uint64 {
	return uint64(in.Op)<<56 |
		uint64(in.Rd)<<48 |
		uint64(in.Rs1)<<40 |
		uint64(in.Rs2)<<32 |
		uint64(uint32(in.Imm))
}

// Decode unpacks a 64-bit instruction word. Words with an out-of-range
// opcode or register field decode to OpNop so that wrong-path fetches of
// arbitrary memory never crash the pipeline; DecodeStrict reports them.
func Decode(w uint64) Inst {
	in, ok := DecodeStrict(w)
	if !ok {
		return Inst{Op: OpNop}
	}
	return in
}

// DecodeStrict unpacks a 64-bit instruction word, reporting whether the
// word is a well-formed SRISC instruction.
func DecodeStrict(w uint64) (Inst, bool) {
	in := Inst{
		Op:  Op(w >> 56),
		Rd:  uint8(w >> 48),
		Rs1: uint8(w >> 40),
		Rs2: uint8(w >> 32),
		Imm: int32(uint32(w)),
	}
	if in.Op >= NumOps || in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return Inst{Op: OpNop}, false
	}
	return in, true
}

// RegName returns the assembly name of an architectural register index:
// r0..r31 for integer registers, f0..f31 for floating-point registers.
func RegName(r uint8) string {
	if r < NumIntRegs {
		return fmt.Sprintf("r%d", r)
	}
	if r < NumRegs {
		return fmt.Sprintf("f%d", r-FPBase)
	}
	return fmt.Sprintf("reg(%d)", r)
}

// String disassembles the instruction: the mnemonic, then the operands
// of Op.Args separated by commas.
func (in Inst) String() string {
	b := []byte(in.Info().Name)
	for i, a := range in.Op.Args() {
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch a {
		case ArgRd:
			b = append(b, RegName(in.Rd)...)
		case ArgRs1:
			b = append(b, RegName(in.Rs1)...)
		case ArgRs2:
			b = append(b, RegName(in.Rs2)...)
		case ArgImm, ArgTarget:
			b = strconv.AppendInt(b, int64(in.Imm), 10)
		case ArgMem:
			b = fmt.Appendf(b, "%d(%s)", in.Imm, RegName(in.Rs1))
		}
	}
	return string(b)
}
