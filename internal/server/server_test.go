package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/ftsim"
	"repro/ftsim/api"
)

// tWriter adapts t.Logf into an io.Writer for a slog handler.
type tWriter struct{ t *testing.T }

func (w tWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// testLogger routes the daemon's structured logs through the test log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(tWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// newTestServer starts an in-process daemon over httptest and tears it
// down (drain, then close) when the test finishes.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = testLogger(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// quickTrial is a short self-halting workload: a 3000-iteration
// arithmetic loop under a comfortable budget.
func quickTrial(label string) api.TrialSpec {
	cfg := ftsim.ModelSS2.Config()
	cfg.MaxInsts = 30_000
	cfg.MaxCycles = 1_000_000
	return api.TrialSpec{
		Label: label,
		Asm: `
        li   r1, 3000
        li   r2, 11
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        out  r2
        halt
`,
		Config: cfg,
	}
}

// blockerTrial spins effectively forever (the budget is astronomically
// larger than any test runtime); only cancellation stops it.
func blockerTrial() api.TrialSpec {
	cfg := ftsim.ModelSS2.Config()
	cfg.MaxInsts = 1 << 50
	cfg.MaxCycles = 1 << 52
	return api.TrialSpec{
		Label: "blocker",
		Asm: `
loop:   addi r1, r1, 1
        bne  r1, r0, loop
        halt
`,
		Config: cfg,
	}
}

func postJSON(t *testing.T, url, token string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("X-FTSim-Client", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// submit posts a campaign and decodes the accepted JobStatus.
func submit(t *testing.T, ts *httptest.Server, token string, req *api.CampaignRequest) *api.JobStatus {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, out := postJSON(t, ts.URL+"/v1/campaigns", token, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, out)
	}
	var st api.JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("submit response: %v: %s", err, out)
	}
	if st.ID == "" {
		t.Fatalf("submit response has no job ID: %s", out)
	}
	return &st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) *api.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// waitState polls until the job reaches the wanted state (terminal
// states also satisfy a "has left X" style wait via the caller checking
// the returned status).
func waitState(t *testing.T, ts *httptest.Server, id string, want api.JobState) *api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s (want %s)", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// watchSSE streams a job's event feed from the given Last-Event-ID
// until a done event (inclusive) and returns everything received.
func watchSSE(t *testing.T, ts *httptest.Server, id string, lastEventID string) []api.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events %s: HTTP %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events %s: Content-Type %q", id, ct)
	}
	var events []api.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		events = append(events, ev)
		if ev.Type == api.EventDone {
			return events
		}
	}
	t.Fatalf("SSE stream for %s ended without a done event (%d events, read err %v)",
		id, len(events), sc.Err())
	return nil
}

// TestLifecycleSubmitRunDone drives the happy path end to end over
// HTTP: submit → queued → running → done, with interval samples and
// per-trial completions on the SSE stream and aggregate stats on the
// final status.
func TestLifecycleSubmitRunDone(t *testing.T) {
	_, ts := newTestServer(t, Config{ObserveEvery: 500})

	st := submit(t, ts, "", &api.CampaignRequest{
		Name:   "happy",
		Seed:   3,
		Trials: []api.TrialSpec{quickTrial("a"), quickTrial("b")},
	})
	if st.State != api.StateQueued || st.Trials != 2 {
		t.Fatalf("submit: got state %s trials %d", st.State, st.Trials)
	}

	events := watchSSE(t, ts, st.ID, "")
	var sawRunning bool
	var intervals, trials int
	for _, ev := range events {
		switch ev.Type {
		case api.EventState:
			if ev.State == api.StateRunning {
				sawRunning = true
			}
		case api.EventInterval:
			intervals++
			if ev.Interval == nil {
				t.Error("interval event without an Interval payload")
			}
		case api.EventTrial:
			trials++
		}
	}
	if !sawRunning {
		t.Error("SSE stream never showed the running state")
	}
	if intervals < 2 {
		t.Errorf("SSE stream carried %d interval samples, want >= 2", intervals)
	}
	if trials != 2 {
		t.Errorf("SSE stream carried %d trial completions, want 2", trials)
	}
	final := events[len(events)-1]
	if final.State != api.StateDone || final.Status == nil {
		t.Fatalf("done event: %+v", final)
	}
	if final.Status.Done != 2 || final.Status.Failed != 0 {
		t.Errorf("final status: done %d failed %d", final.Status.Done, final.Status.Failed)
	}

	got := getStatus(t, ts, st.ID)
	if got.State != api.StateDone {
		t.Fatalf("status after done event: %s", got.State)
	}
	var stats []*ftsim.Stats
	if err := json.Unmarshal(got.Stats, &stats); err != nil || len(stats) != 2 {
		t.Fatalf("aggregate stats: %v (len %d, want 2): %s", err, len(stats), got.Stats)
	}
	if stats[0].Committed == 0 {
		t.Error("trial 0 committed nothing")
	}

	// Reconnecting to a finished job replays the retained history; with
	// a Last-Event-ID it resumes mid-stream.
	replay := watchSSE(t, ts, st.ID, "")
	if len(replay) != len(events) {
		t.Errorf("full replay returned %d events, live stream had %d", len(replay), len(events))
	}
	tail := watchSSE(t, ts, st.ID, fmt.Sprint(events[len(events)-2].Seq))
	if len(tail) != 1 || tail[0].Type != api.EventDone {
		t.Errorf("Last-Event-ID replay: got %d events, want just the done event", len(tail))
	}

	// The listing includes the job.
	resp, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []*api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list: %+v", list)
	}
}

// TestCancelWhileQueuedAndRunning pins both cancellation paths: a
// queued job dies immediately; a running one has its campaign context
// cancelled and lands in cancelled once the workers drain.
func TestCancelWhileQueuedAndRunning(t *testing.T) {
	_, ts := newTestServer(t, Config{Concurrency: 1})

	blocker := submit(t, ts, "", &api.CampaignRequest{
		Name: "blocker", Trials: []api.TrialSpec{blockerTrial()},
	})
	waitState(t, ts, blocker.ID, api.StateRunning)

	queued := submit(t, ts, "", &api.CampaignRequest{
		Name: "stuck", Trials: []api.TrialSpec{quickTrial("q")},
	})
	if got := getStatus(t, ts, queued.ID); got.State != api.StateQueued {
		t.Fatalf("second job state: %s, want queued (single slot busy)", got.State)
	}

	del := func(id string) *api.JobStatus {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: HTTP %d", id, resp.StatusCode)
		}
		var st api.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return &st
	}

	// Cancel while queued: terminal immediately.
	if st := del(queued.ID); st.State != api.StateCancelled {
		t.Errorf("cancel queued job: state %s", st.State)
	}
	events := watchSSE(t, ts, queued.ID, "")
	if got := events[len(events)-1].State; got != api.StateCancelled {
		t.Errorf("queued job done event state: %s", got)
	}

	// Cancel while running: the DELETE returns promptly (still running),
	// then the campaign context unwinds the in-flight trial.
	del(blocker.ID)
	st := waitState(t, ts, blocker.ID, api.StateCancelled)
	if st.Finished == nil {
		t.Error("cancelled job has no finish time")
	}
	// Cancel is idempotent on a terminal job.
	if st := del(blocker.ID); st.State != api.StateCancelled {
		t.Errorf("re-cancel: state %s", st.State)
	}
}

// TestQuotaAdmission pins the three admission failures: per-client job
// quota (429), per-client trial quota (429), and global queue depth
// (503) — and that another client is unaffected by the first client's
// quota.
func TestQuotaAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Concurrency:        1,
		MaxQueue:           1,
		MaxQueuedPerClient: 1,
		MaxTrialsPerClient: 2,
	})

	blocker := submit(t, ts, "alice", &api.CampaignRequest{
		Name: "blocker", Trials: []api.TrialSpec{blockerTrial()},
	})
	waitState(t, ts, blocker.ID, api.StateRunning)

	expect := func(token string, req *api.CampaignRequest, wantCode int) {
		t.Helper()
		body, _ := json.Marshal(req)
		code, out := postJSON(t, ts.URL+"/v1/campaigns", token, body)
		if code != wantCode {
			t.Fatalf("client %s: HTTP %d, want %d: %s", token, code, wantCode, out)
		}
		if wantCode >= 400 {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
				t.Errorf("client %s: error body %s", token, out)
			}
		}
	}

	// dave: 3 trials > MaxTrialsPerClient.
	expect("dave", &api.CampaignRequest{Trials: []api.TrialSpec{
		quickTrial("1"), quickTrial("2"), quickTrial("3"),
	}}, http.StatusTooManyRequests)
	// alice already has an active job: job quota.
	expect("alice", &api.CampaignRequest{Trials: []api.TrialSpec{quickTrial("x")}},
		http.StatusTooManyRequests)
	// bob is fresh: accepted, fills the global queue.
	submit(t, ts, "bob", &api.CampaignRequest{Trials: []api.TrialSpec{quickTrial("y")}})
	// carol: queue full.
	expect("carol", &api.CampaignRequest{Trials: []api.TrialSpec{quickTrial("z")}},
		http.StatusServiceUnavailable)
}

// TestConcurrentAdmissionHoldsQuota: submissions that race each other
// through the durable submit path still respect the per-client job
// quota, because the quota check and the insert are one admission.
func TestConcurrentAdmissionHoldsQuota(t *testing.T) {
	_, ts := newTestServer(t, Config{Concurrency: 1, MaxQueuedPerClient: 3, DataDir: t.TempDir()})
	blocker := submit(t, ts, "alice", &api.CampaignRequest{Trials: []api.TrialSpec{blockerTrial()}})
	waitState(t, ts, blocker.ID, api.StateRunning)

	body, err := json.Marshal(&api.CampaignRequest{Trials: []api.TrialSpec{quickTrial("x")}})
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]int, 8)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns", bytes.NewReader(body))
			req.Header.Set("X-FTSim-Client", "alice")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	accepted := 0
	for _, code := range codes {
		if code == http.StatusAccepted {
			accepted++
		}
	}
	if accepted != 2 {
		t.Errorf("%d of %d racing submits accepted (HTTP %v), want 2 beside the running job", accepted, len(codes), codes)
	}
}

// TestSubmitBareGoldenConfig: a raw ftsim/testdata machine config is a
// complete submission body — it wraps into a one-trial campaign on the
// default benchmark under the server's instruction budget, and runs to
// completion.
func TestSubmitBareGoldenConfig(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "ftsim", "testdata", "*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no golden configs (err=%v)", err)
	}
	body, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{DefaultMaxInsts: 2_000})
	code, out := postJSON(t, ts.URL+"/v1/campaigns", "", body)
	if code != http.StatusAccepted {
		t.Fatalf("golden config %s: HTTP %d: %s", filepath.Base(matches[0]), code, out)
	}
	var st api.JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}
	if st.Trials != 1 {
		t.Fatalf("bare config wrapped into %d trials", st.Trials)
	}
	final := waitState(t, ts, st.ID, api.StateDone)
	if len(final.Stats) == 0 {
		t.Error("golden-config job finished without stats")
	}
}

// TestSubmitRejections: malformed and invalid submissions fail with
// 400s and JSON error bodies; unknown jobs 404.
func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for name, body := range map[string]string{
		"not json":      `[1,2]`,
		"unknown field": `{"trials": [{"benchmark": "gcc"}], "trails": 1}`,
		"no trials":     `{"trials": []}`,
		"bad benchmark": `{"trials": [{"benchmark": "no-such-workload"}]}`,
		"bad config":    `{"r": -4}`,
		"bad grid cfg":  `{"trials": [{"benchmark": "gcc", "config": {"r": -4}}]}`,
		"bad asm":       `{"trials": [{"asm": "bogus r1"}]}`,
	} {
		code, out := postJSON(t, ts.URL+"/v1/campaigns", "", []byte(body))
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400: %s", name, code, out)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/campaigns/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestHealthAndVersion: the liveness and build-metadata endpoints.
func TestHealthAndVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health: %+v", h)
	}

	resp2, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var v api.Version
	if err := json.NewDecoder(resp2.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.GoVersion == "" || v.Version == "" {
		t.Errorf("version: %+v", v)
	}
}
