// Package snap is the versioned binary encoding shared by machine
// snapshots (internal/cpu) and campaign checkpoint journals
// (internal/campaign). The format is deliberately dumb: a fixed
// header (magic + format version), a flat little-endian payload of
// fixed-width primitives and length-prefixed byte strings, and a
// CRC32 (IEEE) trailer over everything before it. Dumb is the point —
// a restore path must be able to reject torn or corrupt bytes before
// acting on any of them, and a versioned header lets a future format
// evolve without silently misreading old files. A Codec runs one
// layout function as both the encoder and the decoder of that layout.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a snap-encoded blob. "FTSN" = fault-tolerant
// simulator snapshot.
const Magic = 0x4654534e

// Version is the current format version. Decoders reject any other
// value with ErrVersion.
const Version = 1

// headerLen is magic (4) + version (4); trailerLen is the CRC32.
const (
	headerLen  = 8
	trailerLen = 4
)

var (
	// ErrCorrupt reports a blob that is structurally broken: too
	// short, bad magic, failed checksum, truncated field, or trailing
	// garbage.
	ErrCorrupt = errors.New("snap: corrupt encoding")

	// ErrVersion reports a well-formed blob written by an
	// incompatible format version.
	ErrVersion = errors.New("snap: unsupported format version")
)

// A Writer builds one encoded blob. The zero value is not ready;
// use NewWriter. Writers are append-only: primitives go in the order
// the matching Reader will consume them.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the header already emitted.
// sizeHint, when positive, pre-allocates the payload buffer.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	w := &Writer{buf: make([]byte, 0, headerLen+sizeHint+trailerLen)}
	w.U32(Magic)
	w.U32(Version)
	return w
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bytes appends a byte string with a u32 length prefix.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a string with a u32 length prefix.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Finish appends the CRC32 trailer and returns the completed blob.
// The Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	sum := crc32.ChecksumIEEE(w.buf)
	return binary.LittleEndian.AppendUint32(w.buf, sum)
}

// A Reader consumes a blob produced by a Writer. Errors are sticky:
// after the first failure every further read returns the zero value
// and Err reports the failure, so decode sequences can run
// unconditionally and check once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader validates the header and CRC trailer of data and returns
// a Reader positioned at the first payload byte. It returns
// ErrCorrupt for structural damage and ErrVersion for a format
// mismatch. data is aliased, not copied — the caller must not mutate
// it while reading.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any valid encoding", ErrCorrupt, len(data))
	}
	body := data[:len(data)-trailerLen]
	want := binary.LittleEndian.Uint32(data[len(data)-trailerLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %#x, want %#x)", ErrCorrupt, got, want)
	}
	if magic := binary.LittleEndian.Uint32(body); magic != Magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != Version {
		return nil, fmt.Errorf("%w: got version %d, support version %d", ErrVersion, v, Version)
	}
	return &Reader{buf: body, off: headerLen}, nil
}

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// need checks that n more payload bytes exist.
func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail(fmt.Errorf("%w: truncated payload (want %d more bytes, have %d)", ErrCorrupt, n, len(r.buf)-r.off))
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads a boolean; any byte other than 0 or 1 is corrupt.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("%w: invalid boolean byte", ErrCorrupt))
		return false
	}
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bytes reads a length-prefixed byte string. The returned slice
// aliases the Reader's buffer; copy it if it must outlive the blob.
// The length is validated against the remaining payload before any
// allocation, so hostile lengths cannot trigger huge allocations.
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	if !r.need(n) {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Len reports how many unread payload bytes remain. It is the
// fuzz-safety primitive: decoders must bound element counts by the
// remaining length before allocating (`if n > r.Len() { corrupt }`).
func (r *Reader) Len() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.off
}

// Err reports the first read failure, or nil.
func (r *Reader) Err() error { return r.err }

// Done verifies the whole payload was consumed exactly and returns
// the sticky error (or ErrCorrupt on trailing garbage).
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	return nil
}

// Corruptf lets a decoder record a semantic validation failure (a
// count that disagrees with the configured geometry, an out-of-range
// enum) through the Reader's sticky-error channel.
func (r *Reader) Corruptf(format string, args ...any) {
	r.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// A Codec runs one layout in either direction: with W set each method
// writes the values its arguments point at, with R set it reads the
// encoded values into the same places. A component writes its layout
// once, as a function of a Codec, and that function is both its
// encoder and its decoder. Lengths precede what they count, and
// decoding checks each against the storage being filled: a mismatch
// goes to Corruptf and leaves the storage as it was.
type Codec struct {
	W *Writer
	R *Reader
}

// Bool transfers a boolean.
func (c Codec) Bool(p *bool) {
	if c.R != nil {
		*p = c.R.Bool()
	} else {
		c.W.Bool(*p)
	}
}

// U32 transfers a uint32.
func (c Codec) U32(p *uint32) {
	if c.R != nil {
		*p = c.R.U32()
	} else {
		c.W.U32(*p)
	}
}

// U64 transfers each value in turn.
func (c Codec) U64(ps ...*uint64) {
	for _, p := range ps {
		if c.R != nil {
			*p = c.R.U64()
		} else {
			c.W.U64(*p)
		}
	}
}

// Count transfers n, the number of elements that follow. Decoding
// reports false, after Corruptf, if the encoded count is not n.
func (c Codec) Count(what string, n int) bool {
	if c.R == nil {
		c.W.U32(uint32(n))
		return true
	}
	if got := c.R.U32(); uint64(got) != uint64(n) {
		c.R.Corruptf("%s: snapshot has %d, want %d", what, got, n)
		return false
	}
	return true
}

// U64s transfers s behind its length.
func (c Codec) U64s(what string, s []uint64) {
	if c.Count(what, len(s)) {
		for i := range s {
			c.U64(&s[i])
		}
	}
}

// Fixed transfers b as a length-prefixed byte string whose length is
// fixed by the storage: decoding copies into b only a string of len(b).
func (c Codec) Fixed(what string, b []byte) {
	if c.R == nil {
		c.W.Bytes(b)
		return
	}
	if got := c.R.Bytes(); len(got) == len(b) {
		copy(b, got)
	} else {
		c.R.Corruptf("%s: snapshot has %d, want %d", what, len(got), len(b))
	}
}

// Corruptf reports a failed semantic check while decoding. Encoding
// ignores it: the state being written is live, and a check it failed
// would describe the encoder's own bug, not damaged bytes.
func (c Codec) Corruptf(format string, args ...any) {
	if c.R != nil {
		c.R.Corruptf(format, args...)
	}
}
