package snap

import (
	"bytes"
	"errors"
	"testing"
)

// TestRoundTrip writes one of every primitive and reads it back.
func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.U64(1<<63 | 12345)
	w.I64(-42)
	w.Bytes([]byte("payload"))
	w.Bytes(nil)
	w.String("café")
	blob := w.Finish()

	r, err := NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<63|12345 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("payload")) {
		t.Errorf("Bytes = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %q", got)
	}
	if got := r.String(); got != "café" {
		t.Errorf("String = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsDamage covers every structural rejection path.
func TestRejectsDamage(t *testing.T) {
	w := NewWriter(0)
	w.U64(7)
	blob := w.Finish()

	if _, err := NewReader(blob[:4]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short blob: %v", err)
	}
	flip := append([]byte(nil), blob...)
	flip[len(flip)/2] ^= 1
	if _, err := NewReader(flip); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip survived CRC: %v", err)
	}
	// Truncation at any prefix length must fail cleanly (either CRC or
	// short-blob).
	for n := 0; n < len(blob); n++ {
		if _, err := NewReader(blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

// TestRejectsVersion: a future version must be rejected with
// ErrVersion, not misread.
func TestRejectsVersion(t *testing.T) {
	w := &Writer{}
	w.U32(Magic)
	w.U32(Version + 1)
	w.U64(7)
	blob := w.Finish()
	if _, err := NewReader(blob); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: %v", err)
	}
}

// TestStickyErrors: reads past the payload stick at the first error,
// Done reports it, and hostile Bytes lengths do not allocate.
func TestStickyErrors(t *testing.T) {
	w := NewWriter(0)
	w.U32(0xffffffff) // masquerades as a 4 GiB Bytes length prefix
	blob := w.Finish()
	r, err := NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Bytes(); got != nil {
		t.Errorf("hostile length returned %d bytes", len(got))
	}
	if r.U64() != 0 || r.Bool() || r.U8() != 0 {
		t.Error("reads after failure returned nonzero values")
	}
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Done after sticky failure: %v", err)
	}
}

// TestTrailingGarbage: an under-consumed payload is an error — it
// means the decoder and encoder disagree about the schema.
func TestTrailingGarbage(t *testing.T) {
	w := NewWriter(0)
	w.U64(1)
	w.U64(2)
	blob := w.Finish()
	r, err := NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	_ = r.U64()
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: %v", err)
	}
}

// TestCorruptf: semantic validation failures flow through the sticky
// error channel.
func TestCorruptf(t *testing.T) {
	w := NewWriter(0)
	w.U32(99)
	blob := w.Finish()
	r, err := NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.U32(); n != 99 {
		t.Fatalf("U32 = %d", n)
	}
	r.Corruptf("count %d exceeds geometry", 99)
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Corruptf not sticky: %v", err)
	}
}
