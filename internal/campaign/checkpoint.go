package campaign

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/snap"
)

// Checkpoint makes a campaign resumable across process deaths. When a
// Runner carries one, every successfully completed trial is appended
// to an on-disk journal, and a later run of the same campaign over the
// same journal skips the trials already recorded, re-running only the
// remainder — with aggregate results identical to an uninterrupted
// run, because per-trial seeds derive from trial indices, never from
// scheduling.
//
// The journal is crash-safe by construction: it is append-only, each
// record is an independently checksummed snap blob behind a length
// prefix, and the reader stops at — and truncates — the first torn or
// corrupt frame, so a record is either durably whole or ignored. A
// header record pins the campaign identity (name, seed, grid size,
// caller-supplied config hash); resuming under a different campaign
// fails with ErrCheckpointMismatch instead of silently mixing grids.
type Checkpoint struct {
	// Path is the journal file. It is created on first use; a non-empty
	// existing journal is resumed from.
	Path string

	// Hash fingerprints the campaign configuration beyond what the Spec
	// itself carries (machine configs, fault rates, workload set...).
	// Trials are closures, so the runner cannot derive this itself; the
	// caller must fold everything that changes trial outcomes into it.
	Hash uint64

	// Encode serialises a trial's Value for the journal; Decode is its
	// inverse, used on resume. Both are required. The round trip must
	// be exact — resumed aggregate statistics are only as bit-identical
	// as this codec.
	Encode func(v any) ([]byte, error)
	Decode func(data []byte) (any, error)

	// FlushEvery is the fsync batch size: the journal is synced to
	// stable storage after this many appended records (and once more on
	// close). <= 0 means 32. Records between syncs can be lost to a
	// crash — they are re-run on resume, never corrupted.
	FlushEvery int

	// syncHook, when non-nil, observes every successful journal fsync
	// with the number of records the sync made durable. Test-only.
	syncHook func(flushed int)
}

// Journal record kinds. The header is always the first frame.
const (
	recHeader = 1
	recTrial  = 2
)

// journalHeader is the campaign identity pinned by the first frame.
type journalHeader struct {
	name   string
	seed   int64
	trials int
	hash   uint64
}

// journalRecord is one completed trial as stored on disk.
type journalRecord struct {
	index    int
	seed     int64
	attempts int
	elapsed  time.Duration
	value    []byte
}

// parseJournal scans data as a sequence of [u32 length][snap blob]
// frames: a header frame followed by trial frames. It stops at the
// first frame that is truncated, corrupt, or of an unexpected kind,
// and returns the records of the valid prefix plus that prefix's byte
// length — the offset a resuming writer truncates to. A missing or
// broken header yields (nil, nil, 0): the journal is unusable and is
// started over. parseJournal never allocates proportionally to
// claimed (rather than actual) lengths, so it is safe on hostile
// input; returned value slices alias data.
func parseJournal(data []byte) (*journalHeader, []journalRecord, int64) {
	off := 0
	var hdr *journalHeader
	var recs []journalRecord
	for {
		if len(data)-off < 4 {
			break
		}
		// Compared before converting: on a 32-bit int a length of
		// 2^31 or more would turn negative and pass the check.
		frame := binary.LittleEndian.Uint32(data[off:])
		if uint64(frame) > uint64(len(data)-off-4) {
			break // torn tail: frame extends past the file
		}
		n := int(frame)
		r, err := snap.NewReader(data[off+4 : off+4+n])
		if err != nil {
			break
		}
		if hdr == nil {
			if r.U8() != recHeader {
				break
			}
			h := journalHeader{name: r.String(), seed: r.I64()}
			h.trials = int(r.U32())
			h.hash = r.U64()
			if r.Done() != nil {
				break
			}
			hdr = &h
		} else {
			if r.U8() != recTrial {
				break
			}
			rec := journalRecord{index: int(r.U32()), seed: r.I64()}
			rec.attempts = int(r.U32())
			rec.elapsed = time.Duration(r.I64())
			rec.value = r.Bytes()
			if r.Done() != nil {
				break
			}
			recs = append(recs, rec)
		}
		off += 4 + n
	}
	if hdr == nil {
		return nil, nil, 0
	}
	return hdr, recs, int64(off)
}

// frame wraps a snap payload in its length prefix.
func frame(payload []byte) []byte {
	buf := make([]byte, 4, 4+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// headerFrame encodes the identity frame for spec under hash.
func headerFrame(spec Spec, hash uint64) []byte {
	w := snap.NewWriter(32 + len(spec.Name))
	w.U8(recHeader)
	w.String(spec.Name)
	w.I64(spec.Seed)
	w.U32(uint32(len(spec.Trials)))
	w.U64(hash)
	return frame(w.Finish())
}

// trialFrame encodes one completed trial with its pre-encoded value.
func trialFrame(res Result, value []byte) []byte {
	w := snap.NewWriter(40 + len(value))
	w.U8(recTrial)
	w.U32(uint32(res.Index))
	w.I64(res.Seed)
	w.U32(uint32(res.Attempts))
	w.I64(int64(res.Elapsed))
	w.Bytes(value)
	return frame(w.Finish())
}

// open prepares the journal for spec: it validates or (re)writes the
// header, converts the journal's valid prefix into resumed Results,
// truncates any torn tail, and returns a writer positioned for
// appending. A mismatched journal returns *CheckpointMismatchError.
func (c *Checkpoint) open(spec Spec, m *Metrics) (*journal, []Result, error) {
	if c.Path == "" {
		return nil, nil, errors.New("campaign: checkpoint has no path")
	}
	if c.Encode == nil || c.Decode == nil {
		return nil, nil, errors.New("campaign: checkpoint needs both Encode and Decode")
	}
	f, err := os.OpenFile(c.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: checkpoint %s: read: %w", c.Path, err)
	}
	hdr, recs, valid := parseJournal(data)
	j := &journal{f: f, flushEvery: c.FlushEvery, syncHook: c.syncHook, metrics: m}
	if j.flushEvery <= 0 {
		j.flushEvery = 32
	}
	if hdr == nil {
		// Empty file, or a header torn by a crash during the very first
		// write: nothing completed under it, so start the journal over.
		if err := j.reset(headerFrame(spec, c.Hash)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("campaign: checkpoint %s: init: %w", c.Path, err)
		}
		return j, nil, nil
	}
	resumed, err := c.resume(spec, hdr, recs)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop the torn tail so appended records land on a frame boundary.
	if valid < int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("campaign: checkpoint %s: truncate torn tail: %w", c.Path, err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: checkpoint %s: seek: %w", c.Path, err)
	}
	return j, resumed, nil
}

// resume validates the journal identity against spec and converts the
// records into Results, decoding the stored values. Later records for
// an index win (only possible if a crash raced the batch fsync).
func (c *Checkpoint) resume(spec Spec, hdr *journalHeader, recs []journalRecord) ([]Result, error) {
	mismatch := func(field, want, got string) error {
		return &CheckpointMismatchError{Path: c.Path, Field: field, Want: want, Got: got}
	}
	if hdr.name != spec.Name {
		return nil, mismatch("name", fmt.Sprintf("%q", spec.Name), fmt.Sprintf("%q", hdr.name))
	}
	if hdr.seed != spec.Seed {
		return nil, mismatch("seed", fmt.Sprint(spec.Seed), fmt.Sprint(hdr.seed))
	}
	if hdr.trials != len(spec.Trials) {
		return nil, mismatch("trials", fmt.Sprint(len(spec.Trials)), fmt.Sprint(hdr.trials))
	}
	if hdr.hash != c.Hash {
		return nil, mismatch("hash", fmt.Sprintf("%#x", c.Hash), fmt.Sprintf("%#x", hdr.hash))
	}
	byIndex := make(map[int]int, len(recs)) // trial index -> slot in out
	var out []Result
	for _, rec := range recs {
		if rec.index < 0 || rec.index >= len(spec.Trials) {
			return nil, mismatch("trial index", fmt.Sprintf("< %d", len(spec.Trials)), fmt.Sprint(rec.index))
		}
		// The campaign seed already matched, so a record seed that
		// disagrees with the derived seed means the seed-derivation
		// grouping (Spec.SeedIndex) changed between runs.
		if want := spec.trialSeed(rec.index); rec.seed != want {
			return nil, mismatch(fmt.Sprintf("trial %d seed", rec.index), fmt.Sprint(want), fmt.Sprint(rec.seed))
		}
		v, err := c.Decode(rec.value)
		if err != nil {
			return nil, fmt.Errorf("campaign: checkpoint %s: decode trial %d: %w", c.Path, rec.index, err)
		}
		res := Result{
			Index:    rec.index,
			Label:    spec.Trials[rec.index].Label,
			Seed:     rec.seed,
			Value:    v,
			Elapsed:  rec.elapsed,
			Attempts: rec.attempts,
		}
		if slot, ok := byIndex[rec.index]; ok {
			out[slot] = res
		} else {
			byIndex[rec.index] = len(out)
			out = append(out, res)
		}
	}
	return out, nil
}

// journal appends trial records to the checkpoint file with batched
// fsync. Errors are sticky: after a failed append the journal stops
// writing and Close reports the failure — the campaign keeps running
// (results in memory are unaffected), it just loses durability.
type journal struct {
	f            *os.File
	flushEvery   int
	pending      int
	pendingBytes int64
	closed       bool
	err          error
	syncHook     func(flushed int)
	metrics      *Metrics
}

// reset truncates the file and writes a fresh header, synced.
func (j *journal) reset(header []byte) error {
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := j.f.Write(header); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.metrics.checkpointSynced(0, int64(len(header)))
	return nil
}

// append journals one successful trial. The caller serialises calls
// (the runner appends under its completion mutex).
func (j *journal) append(c *Checkpoint, res Result) {
	if j.err != nil || j.closed {
		return
	}
	value, err := c.Encode(res.Value)
	if err != nil {
		j.err = fmt.Errorf("encode trial %d: %w", res.Index, err)
		return
	}
	fr := trialFrame(res, value)
	if _, err := j.f.Write(fr); err != nil {
		j.err = fmt.Errorf("append trial %d: %w", res.Index, err)
		return
	}
	j.pending++
	j.pendingBytes += int64(len(fr))
	if j.pending >= j.flushEvery {
		j.sync()
	}
}

// sync flushes pending records to stable storage.
func (j *journal) sync() {
	flushed, flushedBytes := j.pending, j.pendingBytes
	j.pending, j.pendingBytes = 0, 0
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("sync: %w", err)
		return
	}
	j.metrics.checkpointSynced(flushed, flushedBytes)
	if j.syncHook != nil {
		j.syncHook(flushed)
	}
}

// drain hardens the journal for shutdown: records appended but not yet
// fsynced are synced immediately, and every later append syncs as it
// lands. The runner calls this the moment its context is cancelled, so
// a campaign interrupted by SIGTERM has its completed trials durable
// even if the process is killed for real while slow in-flight trials
// are still draining — without it, up to FlushEvery-1 journaled results
// would sit unsynced until Close.
func (j *journal) drain() {
	if j.err != nil || j.closed {
		return
	}
	j.flushEvery = 1
	if j.pending > 0 {
		j.sync()
	}
}

// Close flushes pending records and closes the file, returning the
// first error the journal hit.
func (j *journal) Close() error {
	if j.err == nil && j.pending > 0 {
		j.sync()
	}
	j.closed = true
	if err := j.f.Close(); err != nil && j.err == nil {
		j.err = fmt.Errorf("close: %w", err)
	}
	return j.err
}
