package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
)

// testCheckpoint builds a Checkpoint journaling under dir.
func testCheckpoint(t *testing.T, dir string, hash uint64) *Checkpoint {
	t.Helper()
	return &Checkpoint{Path: filepath.Join(dir, "camp.ckpt"), Hash: hash}
}

// squareSpec is a deterministic n-trial campaign whose trial i returns
// statsOf(i*i); fail(i) non-nil injects failures.
func squareSpec(n int, fail func(i int) error) Spec {
	trials := make([]Trial, n)
	for i := range trials {
		i := i
		trials[i] = Trial{
			Label: fmt.Sprintf("sq/%d", i),
			Run: func(ctx context.Context, seed int64) (*cpu.Stats, error) {
				if fail != nil {
					if err := fail(i); err != nil {
						return nil, err
					}
				}
				return statsOf(uint64(i * i)), nil
			},
		}
	}
	return Spec{Name: "squares", Seed: 42, Trials: trials}
}

// ---------------------------------------------------------------------
// Containment.

func TestContainPanickingTrial(t *testing.T) {
	spec := squareSpec(8, nil)
	spec.Trials[3].Run = func(ctx context.Context, seed int64) (*cpu.Stats, error) {
		panic("boom at trial 3")
	}
	rep, err := Runner{Workers: 2, Contain: true}.Run(context.Background(), spec)
	if err == nil {
		t.Fatal("want summarising error, got nil")
	}
	if !errors.Is(err, ErrTrialPanic) {
		t.Fatalf("err = %v, want ErrTrialPanic", err)
	}
	var pe *TrialPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v does not unwrap to *TrialPanicError", err)
	}
	if !strings.Contains(pe.Stack, "durability_test") {
		t.Errorf("panic stack does not name the panicking frame:\n%s", pe.Stack)
	}
	// Every other trial still ran to completion.
	for i, res := range rep.Results {
		if i == 3 {
			if res.Err == nil {
				t.Fatal("trial 3 should have failed")
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("trial %d contained failure leaked: %v", i, res.Err)
		}
		if got := res.Stats.Committed; got != uint64(i*i) {
			t.Fatalf("trial %d value = %d, want %d", i, got, i*i)
		}
	}
	fails := rep.Failures()
	if len(fails) != 1 || fails[0].Index != 3 || fails[0].Attempts != 1 {
		t.Fatalf("Failures() = %+v, want exactly trial 3 with 1 attempt", fails)
	}
}

func TestFailFastStopsDispatch(t *testing.T) {
	boom := errors.New("hard failure")
	// 15 trials on one worker dispatch one trial at a time.
	spec := squareSpec(15, func(i int) error {
		if i == 0 {
			return boom
		}
		return nil
	})
	rep, err := Runner{Workers: 1}.Run(context.Background(), spec)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the trial failure", err)
	}
	ran := 0
	for _, res := range rep.Results {
		if res.Attempts > 0 {
			ran++
		}
	}
	if ran == len(rep.Results) {
		t.Fatal("fail-fast run dispatched the whole grid")
	}
}

func TestPanicContainedEvenWithoutContain(t *testing.T) {
	spec := squareSpec(4, nil)
	spec.Trials[0].Run = func(ctx context.Context, seed int64) (*cpu.Stats, error) { panic("kaboom") }
	// Without Contain the campaign fails fast, but the panic must still
	// be converted to an error instead of crashing the worker pool.
	_, err := Runner{Workers: 2}.Run(context.Background(), spec)
	if !errors.Is(err, ErrTrialPanic) {
		t.Fatalf("err = %v, want ErrTrialPanic", err)
	}
}

func TestTrialTimeout(t *testing.T) {
	spec := squareSpec(4, nil)
	spec.Trials[2].Run = func(ctx context.Context, seed int64) (*cpu.Stats, error) {
		<-ctx.Done() // a wedged-but-cooperative trial
		return nil, ctx.Err()
	}
	rep, err := Runner{Workers: 2, Contain: true, TrialTimeout: 20 * time.Millisecond}.
		Run(context.Background(), spec)
	if !errors.Is(err, ErrTrialTimeout) {
		t.Fatalf("err = %v, want ErrTrialTimeout", err)
	}
	// The timeout is a real per-trial failure, not cancellation noise:
	// it must survive the Err/Failures cancellation filter and must NOT
	// match context.DeadlineExceeded.
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("trial timeout leaked context.DeadlineExceeded; Report.Err would filter it as noise")
	}
	if fails := rep.Failures(); len(fails) != 1 || fails[0].Index != 2 {
		t.Fatalf("Failures() = %+v, want exactly trial 2", fails)
	}
}

func TestParentCancellationIsNotATimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := squareSpec(2, nil)
	spec.Trials[0].Run = func(ctx context.Context, seed int64) (*cpu.Stats, error) {
		cancel() // the campaign is aborted while this trial runs
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, err := Runner{Workers: 1, TrialTimeout: time.Hour}.Run(ctx, spec)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if errors.Is(err, ErrTrialTimeout) {
		t.Fatalf("campaign abort misreported as per-trial timeout: %v", err)
	}
}

// slowThenOK returns a trial whose first slow attempts outlive any
// trial deadline (they end only when their context does) and whose
// later attempts return statsOf(v) at once. calls counts the attempts.
func slowThenOK(slow int, v uint64, calls *int) func(context.Context, int64) (*cpu.Stats, error) {
	return func(ctx context.Context, seed int64) (*cpu.Stats, error) {
		if *calls++; *calls <= slow {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return statsOf(v), nil
	}
}

func TestRetryTransient(t *testing.T) {
	calls := 0
	spec := squareSpec(6, nil)
	spec.Trials[4].Run = slowThenOK(2, 16, &calls)
	rep, err := Runner{Workers: 1, TrialTimeout: 20 * time.Millisecond, Retries: 3, RetryBackoff: time.Millisecond}.
		Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("retries should have recovered the timed-out trial: %v", err)
	}
	if got := rep.Results[4].Attempts; got != 3 {
		t.Fatalf("trial 4 attempts = %d, want 3", got)
	}
	if got := rep.Results[2].Attempts; got != 1 {
		t.Fatalf("healthy trial attempts = %d, want 1", got)
	}
	if vals := committed(t, rep); vals[4] != 16 {
		t.Fatalf("recovered trial value = %d, want 16", vals[4])
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	calls := 0
	spec := squareSpec(1, nil)
	spec.Trials[0].Run = slowThenOK(math.MaxInt, 0, &calls)
	rep, err := Runner{TrialTimeout: 10 * time.Millisecond, Retries: 2, RetryBackoff: time.Millisecond, Contain: true}.
		Run(context.Background(), spec)
	if !errors.Is(err, ErrTrialTimeout) {
		t.Fatalf("err = %v, want the exhausted timeout", err)
	}
	if calls != 3 {
		t.Fatalf("trial ran %d times, want 1 + 2 retries", calls)
	}
	if rep.Results[0].Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", rep.Results[0].Attempts)
	}
}

func TestDeterministicFailuresNotRetried(t *testing.T) {
	calls := 0
	spec := squareSpec(1, func(i int) error {
		calls++
		return errors.New("deterministic bug")
	})
	Runner{Retries: 5, RetryBackoff: time.Millisecond, Contain: true}.
		Run(context.Background(), spec)
	if calls != 1 {
		t.Fatalf("non-retryable failure ran %d times, want 1", calls)
	}
}

func TestErrSummarisesMultipleFailures(t *testing.T) {
	spec := squareSpec(8, func(i int) error {
		if i == 2 || i == 5 || i == 7 {
			return fmt.Errorf("bad cell %d", i)
		}
		return nil
	})
	rep, err := Runner{Workers: 4, Contain: true}.Run(context.Background(), spec)
	if err == nil {
		t.Fatal("want error")
	}
	// Deterministic: always the lowest-index failure, with the count.
	if want := "3 of 8 trials failed; first: trial 2 (sq/2): bad cell 2"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
	if len(rep.Failures()) != 3 {
		t.Fatalf("Failures() = %+v, want 3 entries", rep.Failures())
	}
}

// ---------------------------------------------------------------------
// Checkpoint / resume.

func TestCheckpointResumeSkipsCompletedTrials(t *testing.T) {
	dir := t.TempDir()
	ck := testCheckpoint(t, dir, 7)
	spec := squareSpec(16, nil)

	// First run: trial 9 fails, everything else completes and is
	// journaled (FlushEvery=1 so every record is synced).
	failing := squareSpec(16, func(i int) error {
		if i == 9 {
			return errors.New("flaky cell")
		}
		return nil
	})
	ck.FlushEvery = 1
	rep1, err := Runner{Workers: 2, Contain: true, Checkpoint: ck}.Run(context.Background(), failing)
	if err == nil || len(rep1.Failures()) != 1 {
		t.Fatalf("first run: err=%v failures=%v", err, rep1.Failures())
	}

	// Second run over the same journal: only trial 9 re-executes.
	executed := map[int]bool{}
	resumeSpec := squareSpec(16, nil)
	for i := range resumeSpec.Trials {
		i := i
		inner := resumeSpec.Trials[i].Run
		resumeSpec.Trials[i].Run = func(ctx context.Context, seed int64) (*cpu.Stats, error) {
			executed[i] = true
			return inner(ctx, seed)
		}
	}
	rep2, err := Runner{Workers: 1, Checkpoint: ck}.Run(context.Background(), resumeSpec)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep2.Resumed != 15 {
		t.Fatalf("Resumed = %d, want 15", rep2.Resumed)
	}
	if len(executed) != 1 || !executed[9] {
		t.Fatalf("resume executed trials %v, want only trial 9", executed)
	}

	// Aggregate values equal an uninterrupted run's.
	ref, err := Runner{Workers: 1}.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if got, want := committed(t, rep2), committed(t, ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed values %v != uninterrupted %v", got, want)
	}

	// Third run: everything resumed, nothing executes.
	rep3, err := Runner{Workers: 1, Checkpoint: ck}.Run(context.Background(), squareSpec(16, func(i int) error {
		t.Errorf("trial %d re-ran on a complete journal", i)
		return nil
	}))
	if err != nil || rep3.Resumed != 16 {
		t.Fatalf("complete-journal run: err=%v resumed=%d", err, rep3.Resumed)
	}
}

func TestCheckpointRejectsMismatchedCampaign(t *testing.T) {
	dir := t.TempDir()
	ck := testCheckpoint(t, dir, 7)
	ck.FlushEvery = 1
	if _, err := (Runner{Checkpoint: ck}).Run(context.Background(), squareSpec(8, nil)); err != nil {
		t.Fatalf("seed run: %v", err)
	}

	cases := []struct {
		name   string
		ck     *Checkpoint
		mutate func(*Spec)
	}{
		{"different name", testCheckpoint(t, dir, 7), func(s *Spec) { s.Name = "other" }},
		{"different seed", testCheckpoint(t, dir, 7), func(s *Spec) { s.Seed = 43 }},
		{"different trial count", testCheckpoint(t, dir, 7), func(s *Spec) { s.Trials = s.Trials[:4] }},
		{"different hash", testCheckpoint(t, dir, 8), nil},
		{"different seed grouping", testCheckpoint(t, dir, 7), func(s *Spec) { s.SeedIndex = func(int) int { return 0 } }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := squareSpec(8, nil)
			if tc.mutate != nil {
				tc.mutate(&spec)
			}
			_, err := Runner{Checkpoint: tc.ck}.Run(context.Background(), spec)
			if !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
			}
			var me *CheckpointMismatchError
			if !errors.As(err, &me) {
				t.Fatalf("err %v does not unwrap to *CheckpointMismatchError", err)
			}
		})
	}
}

func TestCheckpointTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	ck := testCheckpoint(t, dir, 1)
	ck.FlushEvery = 1
	if _, err := (Runner{Workers: 1, Checkpoint: ck}).Run(context.Background(), squareSpec(6, nil)); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	data, err := os.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{1, 3, 7} { // tear at various depths into the last frame
		trunc := append([]byte(nil), data[:len(data)-cut]...)
		if err := os.WriteFile(ck.Path, trunc, 0o644); err != nil {
			t.Fatal(err)
		}
		executed := map[int]bool{}
		rep, err := Runner{Workers: 1, Checkpoint: testCheckpoint(t, dir, 1)}.Run(context.Background(),
			squareSpec(6, func(i int) error { executed[i] = true; return nil }))
		if err != nil {
			t.Fatalf("cut %d: resume over torn journal: %v", cut, err)
		}
		// The torn record's trial re-ran; all values are still correct.
		if len(executed) == 0 {
			t.Fatalf("cut %d: torn final record should force at least one re-run", cut)
		}
		vals := committed(t, rep)
		for i, v := range vals {
			if v != uint64(i*i) {
				t.Fatalf("cut %d: value[%d] = %d, want %d", cut, i, v, i*i)
			}
		}
		// Restore the intact journal for the next iteration.
		if err := os.WriteFile(ck.Path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointGarbageTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	ck := testCheckpoint(t, dir, 1)
	ck.FlushEvery = 1
	if _, err := (Runner{Workers: 1, Checkpoint: ck}).Run(context.Background(), squareSpec(4, nil)); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	// Append a frame header claiming 1GiB of payload that isn't there.
	f, err := os.OpenFile(ck.Path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], 1<<30)
	f.Write(huge[:])
	f.Write([]byte("not a snap blob"))
	f.Close()

	rep, err := Runner{Workers: 1, Checkpoint: testCheckpoint(t, dir, 1)}.Run(context.Background(), squareSpec(4, nil))
	if err != nil || rep.Resumed != 4 {
		t.Fatalf("garbage tail: err=%v resumed=%d, want clean resume of 4", err, rep.Resumed)
	}
}

func TestCheckpointCorruptHeaderStartsOver(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "camp.ckpt")
	if err := os.WriteFile(path, []byte("garbage that is no journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{Path: path, Hash: 1, FlushEvery: 1}
	rep, err := Runner{Workers: 1, Checkpoint: ck}.Run(context.Background(), squareSpec(3, nil))
	if err != nil || rep.Resumed != 0 {
		t.Fatalf("unusable journal should start over: err=%v resumed=%d", err, rep.Resumed)
	}
	// And the rewritten journal resumes cleanly now.
	rep2, err := Runner{Workers: 1, Checkpoint: ck}.Run(context.Background(), squareSpec(3, nil))
	if err != nil || rep2.Resumed != 3 {
		t.Fatalf("rewritten journal: err=%v resumed=%d", err, rep2.Resumed)
	}
}

// TestCheckpointKeepsNotes: notes appended around a campaign's frames
// survive its runs, torn tails and a torn header, and never disturb a
// resume.
func TestCheckpointKeepsNotes(t *testing.T) {
	dir := t.TempDir()
	ck := testCheckpoint(t, dir, 1)
	ck.FlushEvery = 1
	appendNote := func(note string) {
		t.Helper()
		if err := AppendNote(ck.Path, []byte(note)); err != nil {
			t.Fatal(err)
		}
	}
	wantNotes := func(want ...string) {
		t.Helper()
		notes, err := ReadNotes(ck.Path)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, n := range notes {
			got = append(got, string(n))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("notes %q, want %q", got, want)
		}
	}
	tear := func(b []byte) {
		t.Helper()
		f, err := os.OpenFile(ck.Path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(b)
		f.Close()
	}
	run := func(wantResumed int) {
		t.Helper()
		rep, err := Runner{Workers: 1, Checkpoint: ck}.Run(context.Background(), squareSpec(3, nil))
		if err != nil || rep.Resumed != wantResumed {
			t.Fatalf("run: err=%v resumed=%d, want %d", err, rep.Resumed, wantResumed)
		}
	}

	// Notes before the header: a torn header after them starts the
	// campaign over, and the notes stay.
	appendNote("one")
	tear(headerFrame(squareSpec(3, nil), 1)[:10])
	run(0)
	wantNotes("one")
	appendNote("two")
	run(3)
	// A torn tail is dropped before a note lands.
	tear([]byte{9, 0, 0, 0, 1})
	appendNote("three")
	wantNotes("one", "two", "three")
	run(3)
	wantNotes("one", "two", "three")
}

func TestCheckpointFailedTrialsAreNotJournaled(t *testing.T) {
	dir := t.TempDir()
	ck := testCheckpoint(t, dir, 1)
	ck.FlushEvery = 1
	spec := squareSpec(4, func(i int) error {
		if i == 1 {
			return errors.New("failed cell")
		}
		return nil
	})
	Runner{Workers: 1, Contain: true, Checkpoint: ck}.Run(context.Background(), spec)

	data, err := os.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, _, _ := parseJournal(data)
	for _, rec := range recs {
		if rec.index == 1 {
			t.Fatal("failed trial was journaled; resume would wrongly skip it")
		}
	}
	if len(recs) != 3 {
		t.Fatalf("journal has %d records, want 3 successes", len(recs))
	}
}

// TestCheckpointSurvivesSIGKILL covers the headline crash scenario: a
// campaign is killed mid-grid (SIGKILL, no deferred cleanup runs), and
// a resumed run completes the grid with values identical to an
// uninterrupted run. The killed campaign runs in a subprocess (re-exec
// of this test binary, gated by an environment variable) because a
// real SIGKILL cannot be survived in-process.
func TestCheckpointSurvivesSIGKILL(t *testing.T) {
	if os.Getenv("CAMPAIGN_CRASH_CHILD") != "" {
		crashChildMain()
		return
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.ckpt")

	cmd := exec.Command(os.Args[0], "-test.run=TestCheckpointSurvivesSIGKILL")
	cmd.Env = append(os.Environ(), "CAMPAIGN_CRASH_CHILD="+path)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly; it was supposed to be SIGKILLed\n%s", out)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("child left no journal (err=%v): %s", err, out)
	}

	// Resume in-process and check the grid completes correctly.
	ck := &Checkpoint{Path: path, Hash: 99}
	rep, err := Runner{Workers: 2, Checkpoint: ck}.Run(context.Background(), crashSpec())
	if err != nil {
		t.Fatalf("resume after SIGKILL: %v", err)
	}
	if rep.Resumed == 0 {
		t.Fatal("nothing resumed; the crashed run's journal was not used")
	}
	t.Logf("resumed %d of %d trials from the killed run", rep.Resumed, len(rep.Results))

	ref, err := Runner{Workers: 1}.Run(context.Background(), crashSpec())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if got, want := committed(t, rep), committed(t, ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed values %v != uninterrupted %v", got, want)
	}
}

// crashSpec is the grid the SIGKILL test runs in both processes: small
// enough that one worker dispatches one trial at a time.
func crashSpec() Spec {
	return squareSpec(15, nil)
}

// crashChildMain runs the campaign with a checkpoint and SIGKILLs
// itself after a handful of trials have been journaled.
func crashChildMain() {
	path := os.Getenv("CAMPAIGN_CRASH_CHILD")
	ck := &Checkpoint{Path: path, Hash: 99, FlushEvery: 1}
	done := 0
	runner := Runner{
		Workers:    1,
		Checkpoint: ck,
		Progress: func(d, total int, r Result) {
			done = d
			if done == 10 {
				// SIGKILL: no deferred closes, no final fsync — the
				// hardest crash the journal must survive.
				p, _ := os.FindProcess(os.Getpid())
				p.Kill()
				select {} // never reached; Kill is synchronous on Unix
			}
		},
	}
	runner.Run(context.Background(), crashSpec())
	os.Exit(0) // not reached if the kill fired
}

// ---------------------------------------------------------------------
// Journal format fuzzing.

// resealFrames recomputes, in place, the CRC32 trailer of every whole
// frame of a journal, walking the length prefixes as parseJournal does.
func resealFrames(data []byte) {
	for off := 0; len(data)-off >= 4; {
		n := binary.LittleEndian.Uint32(data[off:])
		if uint64(n) > uint64(len(data)-off-4) {
			return
		}
		if p := data[off+4 : off+4+int(n)]; len(p) >= 4 {
			binary.LittleEndian.PutUint32(p[len(p)-4:], crc32.ChecksumIEEE(p[:len(p)-4]))
		}
		off += 4 + int(n)
	}
}

// FuzzCheckpointDecode feeds arbitrary bytes to the journal parser:
// it must never panic or over-allocate, and whatever prefix it accepts
// must be internally consistent (indices parse back, offsets within
// bounds, the same notes). ReadNotes reads the same bytes from a file
// and must agree. Every accepted record then goes through resume
// against a Spec built from the parsed header, so its value bytes reach
// the Stats decode too; nothing there may panic either, and a decoded
// Stats must survive re-encoding unchanged.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed with a real journal: header + two records + torn tail.
	dir := f.TempDir()
	ck := &Checkpoint{Path: filepath.Join(dir, "seed.ckpt"), Hash: 5, FlushEvery: 1}
	if _, err := (Runner{Workers: 1, Checkpoint: ck}).Run(context.Background(), squareSpec(2, nil)); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(ck.Path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// A journal of real simulator Stats, written by ftsim.RunCampaign.
	fixture, err := os.ReadFile("../../ftsim/testdata/campaign.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	// A daemon job log: a note before the header, one between the two
	// trial frames and one after them.
	hdrEnd := 4 + int(binary.LittleEndian.Uint32(data))
	trialEnd := hdrEnd + 4 + int(binary.LittleEndian.Uint32(data[hdrEnd:]))
	first := noteFrame([]byte(`{"id":"c1","state":"queued"}`))
	jobLog := append([]byte{}, first...)
	jobLog = append(jobLog, data[:trialEnd]...)
	jobLog = append(jobLog, noteFrame([]byte(`{"id":"c1"}`))...)
	jobLog = append(jobLog, data[trialEnd:]...)
	jobLog = append(jobLog, noteFrame([]byte(`{"state":"done"}`))...)
	f.Add(jobLog)
	f.Add(jobLog[:len(first)+hdrEnd-3]) // a note, then a torn header

	path := filepath.Join(dir, "notes.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		resealFrames(data)
		hdr, recs, notes, valid := parseJournal(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d out of bounds [0,%d]", valid, len(data))
		}
		if hdr == nil && len(recs) > 0 {
			t.Fatal("records without a header")
		}
		// The accepted prefix must reparse to the same result (the
		// resume path and AppendNote truncate to it and read again).
		hdr2, recs2, notes2, valid2 := parseJournal(data[:valid])
		if valid2 != valid || len(recs2) != len(recs) || (hdr == nil) != (hdr2 == nil) ||
			!reflect.DeepEqual(notes2, notes) {
			t.Fatalf("reparse of valid prefix diverged: %d/%d records, %d/%d notes, %d/%d bytes",
				len(recs), len(recs2), len(notes), len(notes2), valid, valid2)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		read, err := ReadNotes(path)
		if err != nil || !reflect.DeepEqual(read, notes) {
			t.Fatalf("ReadNotes: %d notes (%v), want %d", len(read), err, len(notes))
		}
		if hdr == nil || hdr.trials > 1024 { // bound the Spec allocation
			return
		}
		spec := Spec{Name: hdr.name, Seed: hdr.seed, Trials: make([]Trial, hdr.trials)}
		ck := &Checkpoint{Path: "fuzz.ckpt", Hash: hdr.hash}
		ck.resume(spec, hdr, recs) // as read: may refuse an index or seed
		// With every in-range record's seed agreeing with the Spec, resume
		// decodes every value.
		var inRange []journalRecord
		for _, rec := range recs {
			if rec.index >= 0 && rec.index < hdr.trials {
				rec.seed = spec.trialSeed(rec.index)
				inRange = append(inRange, rec)
			}
		}
		resumed, err := ck.resume(spec, hdr, inRange)
		if err != nil {
			return
		}
		for _, res := range resumed {
			enc, err := json.Marshal(res.Stats)
			if err != nil {
				t.Fatalf("trial %d: re-encoding decoded stats: %v", res.Index, err)
			}
			again := new(cpu.Stats)
			if err := json.Unmarshal(enc, again); err != nil || !reflect.DeepEqual(again, res.Stats) {
				t.Fatalf("trial %d: decoded stats do not survive re-encoding (%v)", res.Index, err)
			}
		}
	})
}
