package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/ftsim"
	"repro/ftsim/api"
	"repro/internal/campaign"
)

// mediumTrial runs long enough (tens of milliseconds, about a second
// under the race detector) that a multi-trial campaign can be
// interrupted mid-grid.
func mediumTrial(label string) api.TrialSpec {
	cfg := ftsim.ModelSS2.Config()
	cfg.MaxInsts = 2_000_000
	cfg.MaxCycles = 100_000_000
	return api.TrialSpec{
		Label: label,
		Asm: `
        li   r1, 15000
        li   r2, 11
loop:   add  r2, r2, r1
        xor  r3, r3, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        out  r2
        halt
`,
		Config: cfg,
	}
}

func crashRequest() *api.CampaignRequest {
	req := &api.CampaignRequest{Name: "crash", Seed: 7, Workers: 1}
	for i := 0; i < 10; i++ {
		req.Trials = append(req.Trials, mediumTrial(fmt.Sprintf("t%d", i)))
	}
	return req
}

// TestServerResumesAfterSIGKILL is the durability proof for the whole
// serving stack: a campaign submitted over HTTP, its daemon SIGKILLed
// mid-grid (no drain, no deferred closes), a fresh daemon started on
// the same data directory — the job resumes from its checkpoint
// journal and finishes with aggregate stats byte-identical to an
// uninterrupted run of the same submission. The killed daemon runs in
// a subprocess (re-exec of this test binary, gated by an environment
// variable) because a real SIGKILL cannot be survived in-process.
func TestServerResumesAfterSIGKILL(t *testing.T) {
	if root := os.Getenv("FTSIMD_CRASH_CHILD"); root != "" {
		crashChildServer(root)
		return
	}
	root := t.TempDir()
	dataDir := filepath.Join(root, "data")

	cmd := exec.Command(os.Args[0], "-test.run=TestServerResumesAfterSIGKILL")
	cmd.Env = append(os.Environ(), "FTSIMD_CRASH_CHILD="+root)
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The child writes its listen address once it is serving.
	addrPath := filepath.Join(root, "addr")
	var baseURL string
	for deadline := time.Now().Add(30 * time.Second); ; {
		if data, err := os.ReadFile(addrPath); err == nil && len(data) > 0 {
			baseURL = "http://" + strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never published its address:\n%s", childOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Submit the campaign over HTTP to the doomed daemon.
	body, err := json.Marshal(crashRequest())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st api.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, %v", resp.StatusCode, err)
	}
	t.Logf("submitted job %s to child daemon at %s", st.ID, baseURL)

	// Stream SSE until a few trials have completed (and been fsynced:
	// the child runs FlushEvery=1), then SIGKILL the daemon mid-grid.
	killed := false
	sseResp, err := http.Get(baseURL + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(sseResp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad SSE line %q: %v", line, err)
		}
		if ev.Type == api.EventDone {
			t.Fatalf("campaign finished before the kill; grow the trials")
		}
		if ev.Type == api.EventTrial && ev.Done >= 3 {
			cmd.Process.Kill()
			killed = true
			break
		}
	}
	sseResp.Body.Close()
	if !killed {
		t.Fatalf("SSE stream ended before 3 trials completed (%v):\n%s", sc.Err(), childOut.String())
	}
	cmd.Wait()

	// The dead daemon left one file, the job's journal: its submission
	// record and trial frames, but no terminal record.
	assertOnlyJournals(t, dataDir, st.ID)
	notes, err := campaign.ReadNotes(filepath.Join(dataDir, st.ID+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 {
		t.Fatalf("killed daemon's journal holds %d notes, want the submission record only", len(notes))
	}
	var sub jobRecord
	if err := json.Unmarshal(notes[0], &sub); err != nil || sub.ID != st.ID || sub.Request == nil || sub.State != api.StateQueued {
		t.Fatalf("submission record %s (%v): want job %s, queued, with its request", notes[0], err, st.ID)
	}

	// Restart: a fresh server on the same data directory re-queues and
	// resumes the job.
	s2, err := New(Config{DataDir: dataDir, Concurrency: 1, FlushEvery: 1, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s2.Drain(ctx)
		ts2.Close()
	}()
	final := waitState(t, ts2, st.ID, api.StateDone)
	if final.Resumed == 0 {
		t.Fatal("restarted job resumed nothing; the journal was not used")
	}
	if final.Resumed >= final.Trials {
		t.Fatalf("restarted job resumed all %d trials; the kill came too late to prove anything", final.Trials)
	}
	if final.Done != final.Trials || final.Failed != 0 {
		t.Fatalf("resumed job: done %d/%d, failed %d", final.Done, final.Trials, final.Failed)
	}
	t.Logf("resumed %d of %d trials from the killed daemon's journal", final.Resumed, final.Trials)

	// Control: the identical submission on a pristine server. Aggregate
	// stats must be byte-identical.
	s3, err := New(Config{Concurrency: 1, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(s3.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s3.Drain(ctx)
		ts3.Close()
	}()
	ref := submit(t, ts3, "", crashRequest())
	refFinal := waitState(t, ts3, ref.ID, api.StateDone)

	if !bytes.Equal(final.Stats, refFinal.Stats) {
		t.Errorf("resumed aggregate stats differ from uninterrupted run:\nresumed: %s\ncontrol: %s",
			final.Stats, refFinal.Stats)
	}
}

// assertOnlyJournals fails the test unless dir holds exactly one
// <id>.ckpt per given id and no other file.
func assertOnlyJournals(t *testing.T, dir string, ids ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	for _, id := range ids {
		want = append(want, id+".ckpt")
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("data dir holds %q, want %q", got, want)
	}
}

// crashChildServer is the subprocess half of the SIGKILL test: a real
// daemon on a random port, address published to a file, serving until
// killed.
func crashChildServer(root string) {
	s, err := New(Config{
		DataDir:      filepath.Join(root, "data"),
		Concurrency:  1,
		FlushEvery:   1,
		ObserveEvery: 100_000,
		Logger:       slog.New(slog.NewTextHandler(os.Stderr, nil)).With("proc", "child"),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: %v\n", err)
		os.Exit(1)
	}
	// Written aside and renamed, so the parent never reads half an
	// address.
	tmp := filepath.Join(root, "addr.tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "child: %v\n", err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, filepath.Join(root, "addr")); err != nil {
		fmt.Fprintf(os.Stderr, "child: %v\n", err)
		os.Exit(1)
	}
	http.Serve(ln, s.Handler()) // until SIGKILL
}

// TestRestartOnParentDataDir restarts daemons on a copy of a data
// directory written before a job was one file: testdata/parent/datadir
// holds the <id>.job.json, <id>.done.json and <id>.ckpt files of a done
// job, a job cancelled while queued, a job drained mid-grid and a
// queued job, and served.json is the job list that daemon served after
// its drain. The side files fold into the journals, terminal jobs come
// back as served, and the other two run to completion, the drained one
// resuming its journaled trials.
func TestRestartOnParentDataDir(t *testing.T) {
	src := filepath.Join("testdata", "parent", "datadir")
	var served []*api.JobStatus
	data, err := os.ReadFile(filepath.Join("testdata", "parent", "served.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &served); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*api.JobStatus)
	var ids []string
	for _, st := range served {
		byName[st.Name] = st
		ids = append(ids, st.ID)
	}
	dir := t.TempDir()
	copySideFiles := func(withJournals bool) {
		t.Helper()
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !withJournals && strings.HasSuffix(e.Name(), ".ckpt") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	asJSON := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	restart := func() (*Server, *httptest.Server) {
		t.Helper()
		return newTestServer(t, Config{Concurrency: 1, FlushEvery: 1, DataDir: dir})
	}
	drain := func(s *Server) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	listAll := func(ts *httptest.Server) string {
		t.Helper()
		var out []string
		for _, id := range ids {
			out = append(out, asJSON(getStatus(t, ts, id)))
		}
		return strings.Join(out, "\n")
	}

	copySideFiles(true)
	s1, ts1 := restart()
	for _, name := range []string{"done", "cancelled"} {
		want := byName[name]
		if got := getStatus(t, ts1, want.ID); asJSON(got) != asJSON(want) {
			t.Errorf("%s job after restart:\n got %s\nwant %s", name, asJSON(got), asJSON(want))
		}
	}
	if len(byName["done"].Stats) == 0 {
		t.Fatal("fixture's done job has no stats")
	}

	drained := waitState(t, ts1, byName["drained"].ID, api.StateDone)
	if drained.Resumed < 1 || drained.Resumed >= drained.Trials {
		t.Fatalf("drained job resumed %d of %d trials, want some but not all", drained.Resumed, drained.Trials)
	}
	t.Logf("drained job resumed %d of %d trials", drained.Resumed, drained.Trials)
	queued := waitState(t, ts1, byName["queued"].ID, api.StateDone)
	for _, got := range []*api.JobStatus{drained, queued} {
		want := byName[got.Name]
		if got.Owner != want.Owner || !got.Submitted.Equal(want.Submitted) || got.Trials != want.Trials {
			t.Errorf("%s job: owner %q, submitted %v, %d trials; served %q, %v, %d",
				got.Name, got.Owner, got.Submitted, got.Trials, want.Owner, want.Submitted, want.Trials)
		}
	}

	// Control: the drained job's submission on a pristine daemon.
	data, err = os.ReadFile(filepath.Join(src, drained.ID+".job.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sub jobRecord
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	_, ctl := newTestServer(t, Config{Concurrency: 1})
	ref := waitState(t, ctl, submit(t, ctl, "", sub.Request).ID, api.StateDone)
	if !bytes.Equal(drained.Stats, ref.Stats) {
		t.Errorf("drained job's stats differ from an uninterrupted run:\nresumed: %s\ncontrol: %s", drained.Stats, ref.Stats)
	}

	drain(s1)
	assertOnlyJournals(t, dir, ids...)
	first := listAll(ts1)

	// A second restart serves the same jobs.
	s2, ts2 := restart()
	if got := listAll(ts2); got != first {
		t.Errorf("second restart:\n got %s\nwant %s", got, first)
	}
	drain(s2)

	// The side files back beside their journals, as a crash between
	// the fold's appends and its removals leaves them: the next start
	// removes them and appends nothing.
	countNotes := func() map[string]int {
		n := make(map[string]int)
		for _, id := range ids {
			notes, err := campaign.ReadNotes(filepath.Join(dir, id+".ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			n[id] = len(notes)
		}
		return n
	}
	before := countNotes()
	copySideFiles(false)
	_, ts3 := restart()
	if after := countNotes(); !maps.Equal(after, before) {
		t.Errorf("refold appended notes: %v, was %v", after, before)
	}
	if got := listAll(ts3); got != first {
		t.Errorf("restart after a cut fold:\n got %s\nwant %s", got, first)
	}
	assertOnlyJournals(t, dir, ids...)
}
