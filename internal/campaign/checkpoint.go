package campaign

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cpu"
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
//
// A record stores its trial's Stats as encoding/json writes them. Stats
// is flat counters (uint64s, float64s and a uint64 slice), all of which
// encoding/json round-trips exactly, so resumed aggregates stay
// bit-identical to an uninterrupted run's.
type Checkpoint struct {
	// Path is the journal file. It is created on first use; a non-empty
	// existing journal is resumed from.
	Path string

	// Hash fingerprints the campaign configuration beyond what the Spec
	// itself carries (machine configs, fault rates, workload set...).
	// Trials are closures, so the runner cannot derive this itself; the
	// caller must fold everything that changes trial outcomes into it.
	Hash uint64

	// FlushEvery is the fsync batch size: the journal is synced to
	// stable storage after this many appended records (and once more on
	// close). <= 0 means 32. Records between syncs can be lost to a
	// crash — they are re-run on resume, never corrupted.
	FlushEvery int

	// syncHook, when non-nil, observes every successful journal fsync
	// with the number of records the sync made durable. Test-only.
	syncHook func(flushed int)
}

// Journal record kinds. The header is the first frame that is not a
// note; trial frames follow it. A note is an opaque payload that the
// runner keeps and skips: ftsimd stores its own job records in them
// (see AppendNote), before the header and after any trial frame.
const (
	recHeader = 1
	recTrial  = 2
	recNote   = 3
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
	index   int
	seed    int64
	elapsed time.Duration
	value   []byte
}

// parseJournal scans data as a sequence of [u32 length][snap blob]
// frames: a header frame followed by trial frames, with note frames
// anywhere among them. It stops at the first frame that is truncated,
// corrupt, or of an unexpected kind, and returns the header, trial
// records and notes of the valid prefix plus that prefix's byte length
// — the offset a resuming writer truncates to. A missing or broken
// header yields a nil header and the leading notes, and the prefix ends
// after them: the campaign part of the journal is unusable and is
// started over there. parseJournal never allocates proportionally to
// claimed (rather than actual) lengths, so it is safe on hostile
// input; returned value and note slices alias data.
func parseJournal(data []byte) (*journalHeader, []journalRecord, [][]byte, int64) {
	off := 0
	var hdr *journalHeader
	var recs []journalRecord
	var notes [][]byte
scan:
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
		switch kind := r.U8(); {
		case kind == recNote:
			note := r.Bytes()
			if r.Done() != nil {
				break scan
			}
			notes = append(notes, note)
		case hdr == nil && kind == recHeader:
			h := journalHeader{name: r.String(), seed: r.I64()}
			h.trials = int(r.U32())
			h.hash = r.U64()
			if r.Done() != nil {
				break scan
			}
			hdr = &h
		case hdr != nil && kind == recTrial:
			rec := journalRecord{index: int(r.U32()), seed: r.I64()}
			r.U32() // attempts, always 1 (see trialFrame)
			rec.elapsed = time.Duration(r.I64())
			rec.value = r.Bytes()
			if r.Done() != nil {
				break scan
			}
			recs = append(recs, rec)
		default:
			break scan
		}
		off += 4 + n
	}
	return hdr, recs, notes, int64(off)
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

// trialFrame encodes one completed trial with its JSON-encoded Stats.
func trialFrame(res Result, value []byte) []byte {
	w := snap.NewWriter(40 + len(value))
	w.U8(recTrial)
	w.U32(uint32(res.Index))
	w.I64(res.Seed)
	w.U32(1) // attempts: a trial runs once; the field keeps the frame layout
	w.I64(int64(res.Elapsed))
	w.Bytes(value)
	return frame(w.Finish())
}

// noteFrame encodes an opaque note.
func noteFrame(note []byte) []byte {
	w := snap.NewWriter(8 + len(note))
	w.U8(recNote)
	w.Bytes(note)
	return frame(w.Finish())
}

// AppendNote appends note to the journal at path and syncs it, creating
// the file if there is none. A torn tail is dropped first, so the note
// lands on a frame boundary. The caller must not append while a Runner
// has the journal open.
func AppendNote(path string, note []byte) error {
	f, err := openFile(path)
	if err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err == nil {
		_, _, _, valid := parseJournal(data)
		if err = f.Truncate(valid); err == nil {
			if _, err = f.WriteAt(noteFrame(note), valid); err == nil {
				err = f.Sync()
			}
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("campaign: journal %s: append note: %w", path, err)
	}
	return nil
}

// ReadNotes returns the notes of the journal at path, in the order they
// were appended, up to the first torn or corrupt frame. A missing file
// has none.
func ReadNotes(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	_, _, notes, _ := parseJournal(data)
	return notes, nil
}

// openFile opens path for reading and writing, creating it if needed.
// When it creates the file it also fsyncs the directory: the file's own
// fsyncs do not make its directory entry durable, so without this a
// power loss could drop a journal whose records were all synced.
func openFile(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return os.OpenFile(path, os.O_RDWR, 0)
	}
	if err != nil {
		return nil, err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sync directory of %s: %w", path, err)
	}
	return f, nil
}

// open prepares the journal for spec: it validates or (re)writes the
// header, converts the journal's valid prefix into resumed Results,
// truncates any torn tail, and returns a writer positioned for
// appending. A mismatched journal returns *CheckpointMismatchError.
func (c *Checkpoint) open(spec Spec, m *Metrics) (*journal, []Result, error) {
	if c.Path == "" {
		return nil, nil, errors.New("campaign: checkpoint has no path")
	}
	f, err := openFile(c.Path)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: checkpoint %s: read: %w", c.Path, err)
	}
	hdr, recs, _, valid := parseJournal(data)
	j := &journal{f: f, flushEvery: c.FlushEvery, syncHook: c.syncHook, metrics: m}
	if j.flushEvery <= 0 {
		j.flushEvery = 32
	}
	if hdr == nil {
		// Empty file, notes only, or a header torn by a crash during the
		// very first write: nothing completed under it, so start the
		// campaign over after the leading notes.
		if err := j.reset(valid, headerFrame(spec, c.Hash)); err != nil {
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
// records into Results, decoding the stored Stats. Later records for
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
		st := new(cpu.Stats)
		if err := json.Unmarshal(rec.value, st); err != nil {
			return nil, fmt.Errorf("campaign: checkpoint %s: decode trial %d: %w", c.Path, rec.index, err)
		}
		res := Result{
			Index:   rec.index,
			Label:   spec.Trials[rec.index].Label,
			Seed:    rec.seed,
			Stats:   st,
			Elapsed: rec.elapsed,
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

// reset truncates the file at off and writes a fresh header there,
// synced.
func (j *journal) reset(off int64, header []byte) error {
	if err := j.f.Truncate(off); err != nil {
		return err
	}
	if _, err := j.f.Seek(off, io.SeekStart); err != nil {
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
func (j *journal) append(res Result) {
	if j.err != nil || j.closed {
		return
	}
	value, err := json.Marshal(res.Stats)
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
