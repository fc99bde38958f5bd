package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/ftsim"
	"repro/ftsim/api"
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

	// The dead daemon left an envelope and a journal, but no terminal
	// record.
	if _, err := os.Stat(filepath.Join(dataDir, st.ID+".job.json")); err != nil {
		t.Fatalf("no persisted envelope: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dataDir, st.ID+".ckpt")); err != nil || fi.Size() == 0 {
		t.Fatalf("no checkpoint journal (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, st.ID+".done.json")); err == nil {
		t.Fatal("killed daemon somehow wrote a terminal record")
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
	if err := writeFileAtomic(filepath.Join(root, "addr"), []byte(ln.Addr().String())); err != nil {
		fmt.Fprintf(os.Stderr, "child: %v\n", err)
		os.Exit(1)
	}
	http.Serve(ln, s.Handler()) // until SIGKILL
}
