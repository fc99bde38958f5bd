package server

import (
	"context"
	"net/http"
	"testing"
	"time"

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
	restarted, _ := newTestServer(t, Config{Concurrency: 1, DataDir: dir})
	for id, n := range want {
		if programs, trials := held(restarted, id); programs || trials != n {
			t.Errorf("recovered job %s: programs built %v, %d trials; want none built, %d trials", id, programs, trials, n)
		}
	}
}
