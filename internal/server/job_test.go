package server

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/ftsim"
	"repro/ftsim/api"
)

// TestRecoveredTerminalJobsBuildNoPrograms: a restarted daemon reloads
// finished jobs — done, cancelled while queued, cancelled while running
// — as history without compiling their trials, and each job reports
// the same trial count before and after the restart.
func TestRecoveredTerminalJobsBuildNoPrograms(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Concurrency: 1, DataDir: dir})

	held := func(s *Server, id string) (programs bool, trials int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		j := s.jobs[id]
		return j.trials != nil, j.status().Trials
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
		if _, trials := held(s, id); trials != n {
			t.Errorf("job %s: %d trials, want %d", id, trials, n)
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
		if programs, trials := held(restarted, id); programs || trials != n {
			t.Errorf("recovered job %s: programs built %v, %d trials; want none built, %d trials", id, programs, trials, n)
		}
	}
}

// TestProgramTable: every job that names a Table 2 program runs the
// daemon's one build of it, while a coordinator (any non-local
// backend) compiles nothing yet still refuses unknown names and bad
// assembly.
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
	for i := range a.trials {
		if a.trials[i].Program != b.trials[i].Program {
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
	if j.trials != nil {
		t.Error("coordinator compiled the grid")
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

// TestFinishedJobDropsTrials: a job that finishes (done, cancelled
// while running, cancelled while queued) keeps no compiled trials, and
// its assembled program becomes garbage.
func TestFinishedJobDropsTrials(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 1})
	del := func(id string) {
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

	blocker := submit(t, ts, "", &api.CampaignRequest{Trials: []api.TrialSpec{blockerTrial()}})
	waitState(t, ts, blocker.ID, api.StateRunning)
	live := submit(t, ts, "", &api.CampaignRequest{Trials: []api.TrialSpec{quickTrial("a")}})
	dropped := submit(t, ts, "", &api.CampaignRequest{Trials: []api.TrialSpec{quickTrial("b")}})
	s.mu.Lock()
	j := s.jobs[live.ID]
	if j.state != api.StateQueued || len(j.trials) != 1 {
		s.mu.Unlock()
		t.Fatalf("second job: state %s, %d trials; want queued with 1", j.state, len(j.trials))
	}
	asm := weak.Make(j.trials[0].Program)
	s.mu.Unlock()

	del(dropped.ID)
	del(blocker.ID)
	waitState(t, ts, live.ID, api.StateDone)
	for _, id := range []string{blocker.ID, live.ID, dropped.ID} {
		s.mu.Lock()
		trials := s.jobs[id].trials
		s.mu.Unlock()
		if trials != nil {
			t.Errorf("finished job %s holds %d trials", id, len(trials))
		}
	}
	for i := 0; i < 5 && asm.Value() != nil; i++ {
		runtime.GC()
	}
	if asm.Value() != nil {
		t.Error("the finished job's assembled program is still reachable")
	}
}
