package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/ftsim"
	"repro/ftsim/api"
	"repro/ftsim/client"
	"repro/internal/server"
)

// tWriter adapts t.Logf into an io.Writer for a slog handler.
type tWriter struct{ t *testing.T }

func (w tWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// startDaemon runs an in-process ftsimd and returns a client bound to
// it.
func startDaemon(t *testing.T, cfg server.Config) *client.Client {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(tWriter{t}, nil))
	}
	s, err := server.New(cfg)
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
	return &client.Client{BaseURL: ts.URL}
}

func loopTrial(label string, iters int) api.TrialSpec {
	cfg := ftsim.ModelSS2.Config()
	cfg.MaxInsts = 30_000
	cfg.MaxCycles = 1_000_000
	return api.TrialSpec{
		Label: label,
		Asm: `
        li   r1, ` + itoa(iters) + `
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt
`,
		Config: cfg,
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestClientEndToEnd exercises the whole client surface against a live
// in-process daemon: submit, watch to completion, status, list,
// health, version.
func TestClientEndToEnd(t *testing.T) {
	c := startDaemon(t, server.Config{ObserveEvery: 500})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, &api.CampaignRequest{
		Name:   "e2e",
		Seed:   5,
		Trials: []api.TrialSpec{loopTrial("a", 2000), loopTrial("b", 2000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateQueued || st.Trials != 2 {
		t.Fatalf("submit: %+v", st)
	}

	var trials int
	var final *api.JobStatus
	err = c.Watch(ctx, st.ID, 0, func(ev api.Event) error {
		switch ev.Type {
		case api.EventTrial:
			trials++
		case api.EventDone:
			final = ev.Status
		}
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if trials != 2 || final == nil || final.State != api.StateDone {
		t.Fatalf("watch saw %d trials, final %+v", trials, final)
	}

	got, err := c.Status(ctx, st.ID)
	if err != nil || got.State != api.StateDone || len(got.Stats) == 0 {
		t.Fatalf("status: %+v, %v", got, err)
	}
	list, err := c.List(ctx)
	if err != nil || len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list: %+v, %v", list, err)
	}
	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" || h.Jobs != 1 {
		t.Fatalf("health: %+v, %v", h, err)
	}
	v, err := c.Version(ctx)
	if err != nil || v.GoVersion == "" {
		t.Fatalf("version: %+v, %v", v, err)
	}
}

// TestClientCancelAndWatchStop: cancelling a running job lands it in
// cancelled, and a Watch callback can stop the stream early.
func TestClientCancelAndWatchStop(t *testing.T) {
	c := startDaemon(t, server.Config{Concurrency: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	blocker := ftsim.ModelSS2.Config()
	blocker.MaxInsts = 1 << 50
	blocker.MaxCycles = 1 << 52
	st, err := c.Submit(ctx, &api.CampaignRequest{
		Name: "spin",
		Trials: []api.TrialSpec{{
			Label:  "spin",
			Asm:    "loop: addi r1, r1, 1\n bne r1, r0, loop\n halt\n",
			Config: blocker,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stop the watch as soon as the job reports running.
	err = c.Watch(ctx, st.ID, 0, func(ev api.Event) error {
		if ev.Type == api.EventState && ev.State == api.StateRunning {
			return client.ErrWatchStopped
		}
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}

	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, err := c.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == api.StateCancelled {
			break
		}
		if got.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("state %s, want cancelled", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientErrors: service errors surface as *api.Error with the
// status code and the server's message.
func TestClientErrors(t *testing.T) {
	c := startDaemon(t, server.Config{})
	ctx := context.Background()

	_, err := c.SubmitRaw(ctx, []byte(`{"trials": []}`))
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty submission: %v", err)
	}
	if apiErr.Message == "" {
		t.Error("error carries no message")
	}

	_, err = c.Status(ctx, "nope")
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %v", err)
	}
}

// TestClientNoRetryOn4xx: every request is sent once. An error
// response, a 4xx or a 5xx alike, reaches the caller as an *api.Error
// after exactly one hit on the daemon.
func TestClientNoRetryOn4xx(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusServiceUnavailable} {
		var hits atomic.Int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n := hits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error": "induced failure %d"}`, n)
		}))
		c := &client.Client{BaseURL: ts.URL}
		_, err := c.Status(context.Background(), "c123")
		ts.Close()
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.StatusCode != status {
			t.Fatalf("got %v, want %d api.Error", err, status)
		}
		if hits.Load() != 1 {
			t.Errorf("%d was attempted %d times, want exactly 1", status, hits.Load())
		}
	}
}

// TestClientAuthToken: against a token-locked daemon, a client without
// the credential gets a 401 and one with it works.
func TestClientAuthToken(t *testing.T) {
	const token = "swordfish"
	c := startDaemon(t, server.Config{AuthToken: token})
	ctx := context.Background()

	bare := &client.Client{BaseURL: c.BaseURL}
	_, err := bare.List(ctx)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated list: %v, want 401 api.Error", err)
	}

	authed := &client.Client{BaseURL: c.BaseURL, AuthToken: token}
	if _, err := authed.List(ctx); err != nil {
		t.Fatalf("authenticated list: %v", err)
	}
	if _, err := authed.Health(ctx); err != nil {
		t.Fatalf("health with token: %v", err)
	}
}
