package server

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/ftsim"
	"repro/ftsim/api"
)

// TestRecoveredTerminalJobsKeepTrialCounts: a restarted daemon reloads
// finished jobs — done, cancelled while queued, cancelled while running
// — as history, and each job reports the same trial count before and
// after the restart.
func TestRecoveredTerminalJobsKeepTrialCounts(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Concurrency: 1, DataDir: dir})

	trials := func(s *Server, id string) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobs[id].status().Trials
	}

	done := submit(t, ts, "", &api.CampaignRequest{
		Name: "done", Trials: []api.TrialSpec{quickTrial("a"), quickTrial("b")},
	})
	waitState(t, ts, done.ID, api.StateDone)

	blocker := submit(t, ts, "", &api.CampaignRequest{
		Name: "blocker", Trials: []api.TrialSpec{blockerTrial()},
	})
	waitState(t, ts, blocker.ID, api.StateRunning)
	queued := submit(t, ts, "", &api.CampaignRequest{
		Name: "queued", Trials: []api.TrialSpec{quickTrial("a"), quickTrial("b"), quickTrial("c")},
	})
	for _, id := range []string{queued.ID, blocker.ID} {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	waitState(t, ts, blocker.ID, api.StateCancelled)

	want := map[string]int{done.ID: 2, queued.ID: 3, blocker.ID: 1}
	for id, n := range want {
		if got := trials(s, id); got != n {
			t.Errorf("job %s: %d trials, want %d", id, got, n)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	assertOnlyJournals(t, dir, done.ID, blocker.ID, queued.ID)
	restarted, _ := newTestServer(t, Config{Concurrency: 1, DataDir: dir})
	for id, n := range want {
		if got := trials(restarted, id); got != n {
			t.Errorf("recovered job %s: %d trials, want %d", id, got, n)
		}
	}
}

// TestProgramTable: every job that names a Table 2 program runs the
// daemon's one build of it, and admission, on a coordinator too,
// refuses unknown names and bad assembly and labels trials by grid
// index.
func TestProgramTable(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	grid := func() *api.CampaignRequest {
		return &api.CampaignRequest{Trials: []api.TrialSpec{{Benchmark: "gcc"}, {Benchmark: "swim"}}}
	}
	a, err := s.buildJob(grid(), "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.buildJob(grid(), "b")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.req.Trials {
		pa, err := s.program(&a.req.Trials[i])
		if err != nil {
			t.Fatal(err)
		}
		pb, err := s.program(&b.req.Trials[i])
		if err != nil {
			t.Fatal(err)
		}
		if pa != pb {
			t.Errorf("trial %d: two submissions got two builds of %s", i, a.req.Trials[i].Benchmark)
		}
	}
	if _, err := s.buildJob(&api.CampaignRequest{Trials: []api.TrialSpec{{Benchmark: "nope"}}}, "a"); !errors.Is(err, ftsim.ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark: %v, want ErrUnknownBenchmark", err)
	}

	c, err := New(Config{Backend: stubBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Drain(context.Background())
	j, err := c.buildJob(grid(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := j.req.Trials[1].Label; got != "1/swim" {
		t.Errorf("coordinator label %q, want 1/swim", got)
	}
	bad := []api.TrialSpec{{Benchmark: "nope"}, {Asm: "bogus r1"}}
	for _, ts := range bad {
		if _, err := c.buildJob(&api.CampaignRequest{Trials: []api.TrialSpec{ts}}, "a"); err == nil {
			t.Errorf("coordinator accepted %+v", ts)
		}
	}
}

type stubBackend struct{}

func (stubBackend) Run(context.Context, *Job) (*Result, error) {
	return nil, errors.New("stub backend runs nothing")
}
