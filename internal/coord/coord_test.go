package coord

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/ftsim"
	"repro/ftsim/api"
	"repro/ftsim/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// tWriter adapts t.Logf into an io.Writer for a slog handler.
type tWriter struct{ t *testing.T }

func (w tWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func testLogger(t *testing.T, tag string) *slog.Logger {
	return slog.New(slog.NewTextHandler(tWriter{t}, nil)).With("daemon", tag)
}

// startServer runs one in-process ftsimd (worker or coordinator,
// depending on cfg.Backend) on a random port.
func startServer(t *testing.T, tag string, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = testLogger(t, tag)
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain %s: %v", tag, err)
		}
		ts.Close()
	})
	return s, ts
}

// cluster is a coordinator daemon plus its worker fleet, all
// in-process on random ports and speaking shared-token auth.
type cluster struct {
	coord   *Coordinator
	client  *client.Client // bound to the coordinator daemon
	workers []*httptest.Server
	reg     *obs.Registry
}

const clusterToken = "cluster-secret"

// newCluster starts n workers and a coordinator daemon in front of
// them.
func newCluster(t *testing.T, n int, cfg Config) *cluster {
	t.Helper()
	cl := &cluster{reg: obs.NewRegistry()}
	for i := 0; i < n; i++ {
		_, ts := startServer(t, fmt.Sprintf("worker%d", i), server.Config{AuthToken: clusterToken})
		cl.workers = append(cl.workers, ts)
		cfg.Workers = append(cfg.Workers, ts.URL)
	}
	cfg.AuthToken = clusterToken
	cfg.Registry = cl.reg
	if cfg.Logger == nil {
		cfg.Logger = testLogger(t, "coord")
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 100 * time.Millisecond
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	cl.coord = co
	// The coordinator daemon: same server, distributed backend. Its
	// own API is open (no token) — worker auth is what's under test.
	_, ts := startServer(t, "coord", server.Config{
		Backend:  co,
		Registry: cl.reg,
		// Several campaigns run concurrently in the invariance sweep.
		Concurrency: 4,
	})
	cl.client = &client.Client{BaseURL: ts.URL}
	return cl
}

// fig5Grid is a miniature of the paper's Fig 5 sweep: one workload
// across fault rates on the 2-way redundant design, fault injection
// live on most of the grid so per-trial seeds shape the numbers.
func fig5Grid(trials int) []api.TrialSpec {
	asm := `
        li   r1, 900
        li   r2, 17
loop:   add  r2, r2, r1
        xor  r3, r3, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        out  r2
        halt
`
	out := make([]api.TrialSpec, trials)
	for i := range out {
		cfg := ftsim.ModelSS2.Config()
		cfg.MaxInsts = 20_000
		cfg.MaxCycles = 1_000_000
		if i%4 != 0 { // every 4th trial is the fault-free control arm
			cfg.Fault.Rate = 1e-3
			cfg.Fault.Targets = ftsim.AllFaultTargets()
		}
		out[i] = api.TrialSpec{Label: fmt.Sprintf("fig5/%d", i), Asm: asm, Config: cfg}
	}
	return out
}

// runToDone submits a campaign and waits for the done state via the
// SSE stream, returning the final status.
func runToDone(t *testing.T, c *client.Client, req *api.CampaignRequest) *api.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var final *api.JobStatus
	err = c.Watch(ctx, st.ID, 0, func(ev api.Event) error {
		if ev.Type == api.EventDone {
			final = ev.Status
		}
		return nil
	})
	if err != nil {
		t.Fatalf("watch %s: %v", st.ID, err)
	}
	if final == nil || final.State != api.StateDone {
		t.Fatalf("job %s finished as %+v, want done", st.ID, final)
	}
	return final
}

// TestPartitionProperty: for any grid size and shard count, the ranges
// tile [0, n) contiguously with sizes differing by at most one.
func TestPartitionProperty(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 16, 100, 101} {
		for _, k := range []int{1, 2, 3, 7, 13, n, n + 5} {
			ranges := partition(n, k)
			wantShards := k
			if wantShards > n {
				wantShards = n
			}
			if wantShards < 1 {
				wantShards = 1
			}
			if len(ranges) != wantShards {
				t.Fatalf("partition(%d,%d): %d shards, want %d", n, k, len(ranges), wantShards)
			}
			next, minSz, maxSz := 0, n, 0
			for _, r := range ranges {
				if r.lo != next || r.hi <= r.lo {
					t.Fatalf("partition(%d,%d): bad range %+v after %d", n, k, r, next)
				}
				next = r.hi
				if sz := r.hi - r.lo; sz < minSz {
					minSz = sz
				} else if sz > maxSz {
					maxSz = sz
				}
			}
			if next != n {
				t.Fatalf("partition(%d,%d): covers [0,%d), want [0,%d)", n, k, next, n)
			}
			if maxSz-minSz > 1 && maxSz != 0 {
				t.Fatalf("partition(%d,%d): shard sizes range %d..%d", n, k, minSz, maxSz)
			}
		}
	}
}

// TestShardInvariance is the distributed-determinism backbone: the
// Fig 5 grid, run unsharded on a plain single daemon, must merge
// byte-identical from a coordinator + 3 workers at every shard count
// {1, 2, 3, 7} — the coordinator is invisible in the results.
func TestShardInvariance(t *testing.T) {
	grid := fig5Grid(14)
	req := func(shards int) *api.CampaignRequest {
		return &api.CampaignRequest{Name: "fig5", Seed: 5, Shards: shards,
			Trials: append([]api.TrialSpec(nil), grid...)}
	}

	// Control: one ordinary daemon, no coordinator anywhere.
	_, controlTS := startServer(t, "control", server.Config{})
	control := runToDone(t, &client.Client{BaseURL: controlTS.URL}, req(0))
	if len(control.Stats) == 0 {
		t.Fatal("control run produced no stats")
	}

	cl := newCluster(t, 3, Config{})
	for _, shards := range []int{1, 2, 3, 7} {
		final := runToDone(t, cl.client, req(shards))
		if final.Shards != shards || final.ShardsDone != shards {
			t.Errorf("shards=%d: reported %d/%d shards done", shards, final.ShardsDone, final.Shards)
		}
		if final.Done != len(grid) || final.Failed != 0 {
			t.Errorf("shards=%d: done %d failed %d, want %d/0", shards, final.Done, final.Failed, len(grid))
		}
		if !bytes.Equal(final.Stats, control.Stats) {
			t.Errorf("shards=%d: merged stats differ from the unsharded control (%d vs %d bytes)",
				shards, len(final.Stats), len(control.Stats))
		}
	}
}

// TestCoordinatorEvents: the merged SSE stream speaks parent-grid
// coordinates — every trial index appears exactly once across shards,
// and the done counter reaches the grid size monotonically.
func TestCoordinatorEvents(t *testing.T) {
	grid := fig5Grid(9)
	cl := newCluster(t, 3, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := cl.client.Submit(ctx, &api.CampaignRequest{
		Name: "events", Seed: 7, Shards: 3, Trials: grid})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	maxDone := 0
	var final *api.JobStatus
	err = cl.client.Watch(ctx, st.ID, 0, func(ev api.Event) error {
		switch ev.Type {
		case api.EventTrial:
			seen[ev.Trial]++
			if ev.Done < maxDone {
				t.Errorf("merged done counter went backwards: %d after %d", ev.Done, maxDone)
			}
			maxDone = ev.Done
			if want := fmt.Sprintf("fig5/%d", ev.Trial); ev.Label != want {
				t.Errorf("trial %d labelled %q, want %q", ev.Trial, ev.Label, want)
			}
		case api.EventDone:
			final = ev.Status
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.State != api.StateDone {
		t.Fatalf("final status %+v", final)
	}
	for i := range grid {
		if seen[i] != 1 {
			t.Errorf("trial %d reported %d completion events, want 1", i, seen[i])
		}
	}
	if maxDone != len(grid) {
		t.Errorf("merged done counter peaked at %d, want %d", maxDone, len(grid))
	}
}

// metricValue scrapes one un-labelled counter/gauge value from the
// registry's text exposition.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// slowGrid is fig5Grid's shape with a nested loop heavy enough
// (~180k instructions per trial) that shards are genuinely mid-flight
// for a while — the kill test needs time to strike.
func slowGrid(trials int) []api.TrialSpec {
	asm := `
        li   r4, 50
outer:  li   r1, 900
        li   r2, 17
loop:   add  r2, r2, r1
        xor  r3, r3, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        addi r4, r4, -1
        bne  r4, r0, outer
        out  r2
        halt
`
	out := make([]api.TrialSpec, trials)
	for i := range out {
		cfg := ftsim.ModelSS2.Config()
		cfg.MaxInsts = 2_000_000
		cfg.MaxCycles = 20_000_000
		if i%4 != 0 {
			cfg.Fault.Rate = 1e-5
			cfg.Fault.Targets = ftsim.AllFaultTargets()
		}
		out[i] = api.TrialSpec{Label: fmt.Sprintf("kill/%d", i), Asm: asm, Config: cfg}
	}
	return out
}

// TestKillWorkerMidGrid: a worker serving a mid-flight shard dies
// hard (all connections severed, port closed). Its shard must be
// redispatched to a surviving worker and the merged stats must still
// be byte-identical to the single-daemon control — fault recovery
// without result drift.
func TestKillWorkerMidGrid(t *testing.T) {
	grid := slowGrid(12)
	req := func(shards int) *api.CampaignRequest {
		return &api.CampaignRequest{Name: "kill", Seed: 11, Shards: shards,
			Trials: append([]api.TrialSpec(nil), grid...)}
	}
	_, controlTS := startServer(t, "control", server.Config{})
	control := runToDone(t, &client.Client{BaseURL: controlTS.URL}, req(0))

	// The probe deadline equals ProbeInterval. At the fixture's 100 ms,
	// busy workers on a loaded host (the race detector, two CPUs) miss
	// it and all look down, and the redispatch can pick the dead worker
	// until it runs out of attempts. A second lets live workers answer.
	cl := newCluster(t, 3, Config{ProbeInterval: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
	defer cancel()
	st, err := cl.client.Submit(ctx, req(3))
	if err != nil {
		t.Fatal(err)
	}

	// killBusyWorker severs the first worker found with a running
	// sub-job that has finished at least one trial and still has at
	// least two outstanding — its shard is provably mid-flight when the
	// port goes dark. Killing immediately on the first hit keeps the
	// stale-state window to one List round-trip.
	killBusyWorker := func() bool {
		for i, ts := range cl.workers {
			wc := &client.Client{BaseURL: ts.URL, AuthToken: clusterToken}
			jobs, err := wc.List(ctx)
			if err != nil {
				continue
			}
			for _, j := range jobs {
				if j.State == api.StateRunning && j.Done >= 1 && j.Trials-j.Done >= 2 {
					ts.CloseClientConnections()
					ts.Close()
					t.Logf("worker %d killed with %d trials outstanding", i, j.Trials-j.Done)
					return true
				}
			}
		}
		return false
	}

	// Poll the workers themselves rather than waiting on the merged
	// stream: relayed events can lag the workers by several trials on a
	// loaded host, long enough to miss every shard's mid-flight window.
	stop := make(chan struct{})
	killedCh := make(chan bool, 1)
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if killBusyWorker() {
				killedCh <- true
				return
			}
			select {
			case <-stop:
				killedCh <- false
				return
			case <-tick.C:
			}
		}
	}()
	var final *api.JobStatus
	err = cl.client.Watch(ctx, st.ID, 0, func(ev api.Event) error {
		if ev.Type == api.EventDone {
			final = ev.Status
		}
		return nil
	})
	close(stop)
	killed := <-killedCh
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("kill condition never triggered")
	}
	if final == nil || final.State != api.StateDone {
		t.Fatalf("job after worker kill: %+v, want done", final)
	}
	if !bytes.Equal(final.Stats, control.Stats) {
		t.Errorf("post-kill merged stats differ from control (%d vs %d bytes)",
			len(final.Stats), len(control.Stats))
	}
	if v := metricValue(t, cl.reg, "ftsimd_coord_shard_redispatches_total"); v < 1 {
		t.Errorf("redispatch counter %v after a worker kill, want >= 1", v)
	}
	if v := metricValue(t, cl.reg, "ftsimd_coord_shards_dispatched_total"); v < 4 {
		t.Errorf("dispatched counter %v, want >= 4 (3 shards + >=1 redispatch)", v)
	}
}

// TestOneSubmitPerDispatch: a worker that refuses its first shard
// submission with 503 sees exactly one POST per dispatch. The
// coordinator's redispatch is the only retry; the client underneath
// never re-sends a Submit, which would queue the shard twice if the
// first copy had been admitted. The redispatched shard still merges
// byte-identical to a single daemon.
func TestOneSubmitPerDispatch(t *testing.T) {
	req := func() *api.CampaignRequest {
		return &api.CampaignRequest{Name: "refused", Seed: 3, Shards: 1, Trials: fig5Grid(4)}
	}
	_, controlTS := startServer(t, "control", server.Config{})
	control := runToDone(t, &client.Client{BaseURL: controlTS.URL}, req())

	worker, _ := startServer(t, "worker", server.Config{AuthToken: clusterToken})
	var posts atomic.Int32
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/campaigns" {
			if posts.Add(1) == 1 {
				http.Error(w, `{"error": "induced refusal"}`, http.StatusServiceUnavailable)
				return
			}
		}
		worker.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)

	cl := newCluster(t, 0, Config{Workers: []string{front.URL}})
	final := runToDone(t, cl.client, req())
	if !bytes.Equal(final.Stats, control.Stats) {
		t.Errorf("redispatched stats differ from control (%d vs %d bytes)",
			len(final.Stats), len(control.Stats))
	}
	dispatched := metricValue(t, cl.reg, "ftsimd_coord_shards_dispatched_total")
	if got := posts.Load(); float64(got) != dispatched {
		t.Errorf("worker saw %d submissions for %v dispatches, want one each", got, dispatched)
	}
	if v := metricValue(t, cl.reg, "ftsimd_coord_shard_redispatches_total"); v != 1 {
		t.Errorf("redispatch counter %v after one refusal, want 1", v)
	}
}

// TestCoordinatorRejectsBadFleet: constructor-level validation.
func TestCoordinatorRejectsBadFleet(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := New(Config{Workers: []string{"http://a", "http://a"}}); err == nil {
		t.Error("duplicate worker URL accepted")
	}
}
