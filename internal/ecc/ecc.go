// Package ecc implements a Hamming SECDED(72,64) code: 64 data bits
// protected by 8 check bits, correcting any single-bit error and
// detecting any double-bit error.
//
// The paper assumes all committed program state — register files, the
// register rename map table, caches, memory, TLBs and the committed
// next-PC register — is protected by exactly this kind of information
// redundancy, placing it outside the sphere of replication. This package
// makes that assumption concrete: the simulator's committed structures
// can be wrapped in ecc.Word and survive the single-event upsets that the
// fault injector throws at the rest of the datapath.
//
// Layout: the codeword has positions 1..72. Positions that are powers of
// two (1,2,4,8,16,32,64) hold check bits; the remaining 65 positions hold
// the 64 data bits in order (one position, 72, is unused by data and
// serves as the overall parity bit for double-error detection).
package ecc

import "math/bits"

// Word is an ECC-protected 64-bit value. Data and Check are stored
// separately so tests and the fault injector can flip bits in either.
type Word struct {
	Data  uint64
	Check uint8 // bits 0..6: Hamming check bits; bit 7: overall parity
}

// Status reports the outcome of decoding a word.
type Status int

const (
	// OK means the word was error-free.
	OK Status = iota
	// Corrected means a single-bit error was detected and corrected.
	Corrected
	// Uncorrectable means a double-bit (or worse) error was detected.
	Uncorrectable
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Uncorrectable:
		return "uncorrectable"
	}
	return "unknown"
}

// dataPos[i] is the codeword position (1..72) of data bit i.
var dataPos = func() [64]uint {
	var pos [64]uint
	i := 0
	for p := uint(1); i < 64; p++ {
		if p&(p-1) == 0 { // power of two: check-bit position
			continue
		}
		pos[i] = p
		i++
	}
	return pos
}()

// synMask[j] is the set of data bits whose codeword position has bit j
// set.
var synMask = func() [7]uint64 {
	var m [7]uint64
	for i, p := range dataPos {
		for j := range m {
			if p&(1<<j) != 0 {
				m[j] |= 1 << i
			}
		}
	}
	return m
}()

// syndrome returns the XOR of the positions of all set data bits. Bit j
// of that XOR is the parity of the set data bits whose position has bit
// j, so it takes seven masked popcounts whatever the data.
func syndrome(data uint64) uint {
	var s uint
	for j, m := range synMask {
		s |= uint(bits.OnesCount64(data&m)&1) << j
	}
	return s
}

// Encode computes the check bits for data. Check bit j sits at codeword
// position 1<<j (j = 0..6), so it is bit j of the syndrome.
func Encode(data uint64) Word {
	check := uint8(syndrome(data)) & 0x7f
	// Overall parity over data and the 7 Hamming check bits.
	parity := uint8(bits.OnesCount64(data)+bits.OnesCount8(check)) & 1
	check |= parity << 7
	return Word{Data: data, Check: check}
}

// Decode verifies w, returning the (possibly corrected) data value and
// the error status. On Uncorrectable the returned data is w.Data
// unchanged.
func Decode(w Word) (uint64, Status) {
	synd := syndrome(w.Data) ^ uint(w.Check&0x7f)
	parityOK := uint8(bits.OnesCount64(w.Data)+bits.OnesCount8(w.Check))&1 == 0

	switch {
	case synd == 0 && parityOK:
		return w.Data, OK
	case synd == 0 && !parityOK:
		// The overall parity bit itself flipped; data is intact.
		return w.Data, Corrected
	case parityOK:
		// Nonzero syndrome with even parity: two bits flipped.
		return w.Data, Uncorrectable
	}
	// Single-bit error at position synd.
	if synd > 72 {
		return w.Data, Uncorrectable
	}
	if synd&(synd-1) == 0 {
		// A check bit flipped; data is intact.
		return w.Data, Corrected
	}
	for i, p := range dataPos {
		if synd == p {
			return w.Data ^ (1 << uint(i)), Corrected
		}
	}
	// Position 72 holds no data or Hamming bit; any syndrome pointing
	// there is inconsistent.
	return w.Data, Uncorrectable
}

// FlipDataBit returns w with data bit i (0..63) inverted, modelling a
// single-event upset in the protected array.
func FlipDataBit(w Word, i uint) Word {
	w.Data ^= 1 << (i & 63)
	return w
}

// FlipCheckBit returns w with check bit j (0..7) inverted.
func FlipCheckBit(w Word, j uint) Word {
	w.Check ^= 1 << (j & 7)
	return w
}

// Reg is an ECC-protected register: every read is decoded and corrected.
// It models structures like the committed next-PC register that the
// paper requires to be information-redundant.
type Reg struct {
	w Word
	// CorrectedCount counts reads that required single-bit correction.
	CorrectedCount uint64
}

// Set stores v with fresh check bits.
func (r *Reg) Set(v uint64) { r.w = Encode(v) }

// Get decodes the stored word, correcting a single-bit upset if present.
// ok is false if the value was uncorrectable.
func (r *Reg) Get() (v uint64, ok bool) {
	v, st := Decode(r.w)
	switch st {
	case Corrected:
		r.CorrectedCount++
		r.w = Encode(v) // scrub
	case Uncorrectable:
		return v, false
	}
	return v, true
}

// Upset flips data bit i in the stored word (for fault-injection tests).
func (r *Reg) Upset(i uint) { r.w = FlipDataBit(r.w, i) }
