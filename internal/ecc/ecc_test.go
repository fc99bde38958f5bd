package ecc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeClean(t *testing.T) {
	f := func(data uint64) bool {
		got, st := Decode(Encode(data))
		return st == OK && got == data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleDataBitCorrection exhaustively flips each of the 64 data bits
// for several payloads and requires exact correction.
func TestSingleDataBitCorrection(t *testing.T) {
	payloads := []uint64{0, ^uint64(0), 0xDEAD_BEEF_CAFE_F00D, 1, 1 << 63, 0x5555_5555_5555_5555}
	for _, data := range payloads {
		w := Encode(data)
		for i := uint(0); i < 64; i++ {
			got, st := Decode(FlipDataBit(w, i))
			if st != Corrected {
				t.Fatalf("data=%#x bit %d: status %v, want Corrected", data, i, st)
			}
			if got != data {
				t.Fatalf("data=%#x bit %d: corrected to %#x", data, i, got)
			}
		}
	}
}

// TestSingleCheckBitCorrection flips each of the 8 check bits; data must
// survive untouched.
func TestSingleCheckBitCorrection(t *testing.T) {
	data := uint64(0x0123_4567_89AB_CDEF)
	w := Encode(data)
	for j := uint(0); j < 8; j++ {
		got, st := Decode(FlipCheckBit(w, j))
		if st != Corrected {
			t.Fatalf("check bit %d: status %v, want Corrected", j, st)
		}
		if got != data {
			t.Fatalf("check bit %d: data corrupted to %#x", j, got)
		}
	}
}

// TestDoubleBitDetection verifies that all double flips (data+data,
// data+check, check+check) are flagged Uncorrectable, by property test.
func TestDoubleBitDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5000; trial++ {
		data := rng.Uint64()
		w := Encode(data)
		// Choose two distinct bit positions out of the 72 used.
		i := uint(rng.Intn(72))
		j := uint(rng.Intn(72))
		if i == j {
			continue
		}
		flip := func(w Word, p uint) Word {
			if p < 64 {
				return FlipDataBit(w, p)
			}
			return FlipCheckBit(w, p-64)
		}
		_, st := Decode(flip(flip(w, i), j))
		if st != Uncorrectable {
			t.Fatalf("double flip (%d,%d) on %#x: status %v, want Uncorrectable", i, j, data, st)
		}
	}
}

func TestDataPositionsDistinct(t *testing.T) {
	seen := make(map[uint]bool)
	for _, p := range dataPos {
		if p == 0 || p > 72 {
			t.Fatalf("position %d out of range", p)
		}
		if p&(p-1) == 0 {
			t.Fatalf("data bit at check position %d", p)
		}
		if seen[p] {
			t.Fatalf("duplicate position %d", p)
		}
		seen[p] = true
	}
}

func TestReg(t *testing.T) {
	var r Reg
	r.Set(0xFEED_FACE_DEAD_BEEF)
	v, ok := r.Get()
	if !ok || v != 0xFEED_FACE_DEAD_BEEF {
		t.Fatalf("clean get = %#x, %v", v, ok)
	}
	// Upset a bit; the next read corrects and scrubs.
	r.Upset(17)
	v, ok = r.Get()
	if !ok || v != 0xFEED_FACE_DEAD_BEEF {
		t.Fatalf("post-upset get = %#x, %v", v, ok)
	}
	if r.CorrectedCount != 1 {
		t.Errorf("corrected count = %d, want 1", r.CorrectedCount)
	}
	// After scrubbing, another upset is again correctable.
	r.Upset(3)
	if v, ok = r.Get(); !ok || v != 0xFEED_FACE_DEAD_BEEF {
		t.Fatalf("second upset get = %#x, %v", v, ok)
	}
	// A double upset without an intervening read is uncorrectable.
	r.Upset(3)
	r.Upset(40)
	if _, ok = r.Get(); ok {
		t.Error("double upset not detected")
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{OK: "ok", Corrected: "corrected", Uncorrectable: "uncorrectable", Status(9): "unknown"} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

// syndromeRef is the bit-by-bit syndrome: the XOR of the codeword
// positions of the set data bits.
func syndromeRef(data uint64) uint {
	var s uint
	for d := data; d != 0; d &= d - 1 {
		s ^= dataPos[bits.TrailingZeros64(d)]
	}
	return s
}

// checkPosRef[j] is the codeword position of check bit j.
var checkPosRef = [7]uint{1, 2, 4, 8, 16, 32, 64}

// encodeRef and decodeRef are Encode and Decode written out position by
// position on syndromeRef.
func encodeRef(data uint64) Word {
	s := syndromeRef(data)
	var check uint8
	for j, p := range checkPosRef {
		if s&p != 0 {
			check |= 1 << uint(j)
		}
	}
	parity := uint8(bits.OnesCount64(data)+bits.OnesCount8(check)) & 1
	return Word{Data: data, Check: check | parity<<7}
}

func decodeRef(w Word) (uint64, Status) {
	synd := syndromeRef(w.Data)
	for j, p := range checkPosRef {
		if w.Check&(1<<uint(j)) != 0 {
			synd ^= p
		}
	}
	parityOK := uint8(bits.OnesCount64(w.Data)+bits.OnesCount8(w.Check))&1 == 0
	switch {
	case synd == 0 && parityOK:
		return w.Data, OK
	case synd == 0:
		return w.Data, Corrected
	case parityOK:
		return w.Data, Uncorrectable
	}
	for _, p := range checkPosRef {
		if synd == p {
			return w.Data, Corrected
		}
	}
	for i, p := range dataPos {
		if synd == p {
			return w.Data ^ (1 << uint(i)), Corrected
		}
	}
	return w.Data, Uncorrectable
}

// TestMatchesReference checks the masked-popcount Encode and Decode
// against the position-by-position reference on random words and on
// every single-bit and double-bit flip of their 72-bit codewords.
func TestMatchesReference(t *testing.T) {
	flip := func(w Word, p int) Word {
		if p < 64 {
			return FlipDataBit(w, uint(p))
		}
		return FlipCheckBit(w, uint(p-64))
	}
	check := func(w Word) {
		t.Helper()
		gd, gs := Decode(w)
		wd, ws := decodeRef(w)
		if gd != wd || gs != ws {
			t.Fatalf("Decode(%+v) = %#x, %v; reference %#x, %v", w, gd, gs, wd, ws)
		}
	}
	rng := rand.New(rand.NewSource(7))
	words := []uint64{0, ^uint64(0), 1, 1 << 63}
	for len(words) < 40 {
		words = append(words, rng.Uint64())
	}
	for _, data := range words {
		w := Encode(data)
		if ref := encodeRef(data); w != ref {
			t.Fatalf("Encode(%#x) = %+v, reference %+v", data, w, ref)
		}
		check(w)
		for i := 0; i < 72; i++ {
			wi := flip(w, i)
			check(wi)
			for j := i + 1; j < 72; j++ {
				check(flip(wi, j))
			}
		}
	}
}

// eagerReg is the register Reg must behave as: it encodes on every Set
// and decodes on every Get.
type eagerReg struct {
	w         Word
	corrected uint64
}

func (r *eagerReg) get() (uint64, bool) {
	v, st := Decode(r.w)
	switch st {
	case Corrected:
		r.corrected++
		r.w = Encode(v)
	case Uncorrectable:
		return v, false
	}
	return v, true
}

// TestRegMatchesEager drives random Set/Get/Upset sequences through Reg
// and through an eagerly encoding reference. Upsets hit data and check
// bits, and several may land between two reads, so single, double and
// wider flips all occur. Every Get must agree in value and ok, the
// correction counts must agree after every step, and once Reg has
// encoded, its codeword must be the reference's bit for bit.
func TestRegMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for seq := 0; seq < 3000; seq++ {
		var lazy Reg
		var ref eagerReg
		var ops []string
		for step := 0; step < 24; step++ {
			switch k := rng.Intn(8); {
			case k < 2:
				v := rng.Uint64()
				if rng.Intn(4) == 0 {
					v = uint64(rng.Intn(4)) // sparse words too
				}
				lazy.Set(v)
				ref.w = Encode(v)
				ops = append(ops, fmt.Sprintf("Set(%#x)", v))
			case k < 5:
				i := uint(rng.Intn(64))
				lazy.Upset(i)
				ref.w = FlipDataBit(ref.w, i)
				ops = append(ops, fmt.Sprintf("Upset(%d)", i))
			case k < 6:
				j := uint(rng.Intn(8))
				w := lazy.encoded()
				*w = FlipCheckBit(*w, j)
				ref.w = FlipCheckBit(ref.w, j)
				ops = append(ops, fmt.Sprintf("flipCheck(%d)", j))
			default:
				v, ok := lazy.Get()
				rv, rok := ref.get()
				ops = append(ops, "Get")
				if v != rv || ok != rok {
					t.Fatalf("%v: Get = %#x, %v; eager %#x, %v", ops, v, ok, rv, rok)
				}
			}
			if lazy.CorrectedCount != ref.corrected {
				t.Fatalf("%v: CorrectedCount %d, eager %d", ops, lazy.CorrectedCount, ref.corrected)
			}
			if !lazy.fresh && lazy.w != ref.w {
				t.Fatalf("%v: codeword %+v, eager %+v", ops, lazy.w, ref.w)
			}
		}
	}
}
