// Package coord turns ftsimd into a campaign coordinator: a
// server.Backend that splits a submitted trial grid into contiguous
// index-range shards and farms them out to a fleet of worker ftsimd
// daemons over the ordinary HTTP API.
//
// Sharding is invisible in the results. PR 1's seed derivation makes
// trials independent — trial i's fault seed is a pure function of the
// campaign seed and i — so a shard carrying trials [lo, hi) of the
// parent grid runs them under api.ShardRange{Offset: lo}, the worker
// derives seeds from parent indices (ftsim.WithTrialSeedIndex), and
// the coordinator's merge is mere concatenation of the per-shard stats
// arrays in shard order: byte-identical to one daemon running the
// whole grid, for any shard count and any interleaving of failures and
// redispatches.
//
// Failure handling is shard-granular. Worker health is probed via
// /healthz; a shard whose worker dies (transport error, 5xx, dropped
// event stream) is redispatched to another worker with capped backoff,
// its progress contribution reset, until it completes or the attempt
// budget runs out. Trial-level simulation failures are not retried —
// they are deterministic and belong to the campaign's error manifest,
// exactly as on a single daemon.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/ftsim/api"
	"repro/ftsim/client"
	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/server"
)

// Config parameterises a Coordinator.
type Config struct {
	// Workers is the fleet: base URLs of worker ftsimd daemons. At
	// least one is required.
	Workers []string
	// AuthToken is the workers' shared bearer token (their -auth-token);
	// empty for open workers.
	AuthToken string
	// Shards is the default shard count for requests that don't set
	// one. <= 0 means one shard per worker.
	Shards int
	// ShardAttempts bounds dispatch attempts per shard (first try plus
	// redispatches). <= 0 means 8.
	ShardAttempts int
	// RetryBackoff is the wait before a shard's first redispatch,
	// doubled per further attempt and capped at 2s. <= 0 means 50ms.
	RetryBackoff time.Duration
	// ProbeInterval is the worker /healthz polling period. <= 0 means
	// 2s.
	ProbeInterval time.Duration
	// Logger receives operational logs; nil discards them.
	Logger *slog.Logger
	// Registry receives the ftsimd_coord_* metric families; nil creates
	// a private registry. Pass the server's registry so one /metrics
	// page carries both.
	Registry *obs.Registry
}

// worker is one fleet member: its client plus probed health and load,
// both guarded by the coordinator's fleet mutex.
type worker struct {
	url     string
	client  *client.Client
	healthy bool
	active  int // shards currently dispatched here
}

// metrics is the coordinator instrument set (ftsimd_coord_*).
type metrics struct {
	dispatched     *obs.Counter
	redispatches   *obs.Counter
	outcomes       *obs.CounterVec // state: done|failed
	shardSeconds   *obs.Histogram
	workersHealthy *obs.Gauge
	probes         *obs.CounterVec // outcome: ok|unhealthy
}

var shardSecondsBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600, 3600}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		dispatched: reg.NewCounter("ftsimd_coord_shards_dispatched_total",
			"Shard dispatches to workers, including redispatches.").With(),
		redispatches: reg.NewCounter("ftsimd_coord_shard_redispatches_total",
			"Shards re-dispatched after a worker failure.").With(),
		outcomes: reg.NewCounter("ftsimd_coord_shards_total",
			"Shards by final outcome.", "state"),
		shardSeconds: reg.NewHistogram("ftsimd_coord_shard_seconds",
			"Wall time of successful shard runs, dispatch to merge.", shardSecondsBuckets).With(),
		workersHealthy: reg.NewGauge("ftsimd_coord_workers_healthy",
			"Workers whose last /healthz probe succeeded.").With(),
		probes: reg.NewCounter("ftsimd_coord_health_probes_total",
			"Worker health probes by outcome.", "outcome"),
	}
}

// Coordinator implements server.Backend over a worker fleet. Create
// with New, install as server.Config.Backend, Close on shutdown.
type Coordinator struct {
	cfg Config
	log *slog.Logger
	m   *metrics

	fleetMu sync.Mutex // guards every worker's healthy/active
	workers []*worker

	stopProbe context.CancelFunc
	probeDone chan struct{}
}

// New validates the fleet, probes it once synchronously (so a
// coordinator that comes up with live workers dispatches immediately),
// and starts the background health prober.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("coord: no workers configured")
	}
	if cfg.ShardAttempts <= 0 {
		cfg.ShardAttempts = 8
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	c := &Coordinator{cfg: cfg, log: cfg.Logger}
	if c.log == nil {
		c.log = slog.New(slog.DiscardHandler)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c.m = newMetrics(reg)
	seen := make(map[string]bool)
	for _, url := range cfg.Workers {
		if url == "" || seen[url] {
			return nil, fmt.Errorf("coord: empty or duplicate worker URL %q", url)
		}
		seen[url] = true
		c.workers = append(c.workers, &worker{
			url: url,
			client: &client.Client{
				BaseURL:   url,
				Token:     "coordinator",
				AuthToken: cfg.AuthToken,
			},
		})
	}
	c.probeAll(context.Background())
	probeCtx, stop := context.WithCancel(context.Background())
	c.stopProbe = stop
	c.probeDone = make(chan struct{})
	go c.probeLoop(probeCtx)
	return c, nil
}

// Close stops the health prober. In-flight Run calls are governed by
// their own contexts (the server cancels them on drain).
func (c *Coordinator) Close() {
	c.stopProbe()
	<-c.probeDone
}

// probeLoop polls every worker's /healthz.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer close(c.probeDone)
	tick := time.NewTicker(c.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			c.probeAll(ctx)
		}
	}
}

// probeAll probes the whole fleet once and refreshes the healthy gauge.
func (c *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeInterval)
			defer cancel()
			h, err := w.client.Health(pctx)
			ok := err == nil && h.Status == "ok"
			c.setHealthy(w, ok)
			if ok {
				c.m.probes.With("ok").Inc()
			} else {
				c.m.probes.With("unhealthy").Inc()
			}
		}(w)
	}
	wg.Wait()
}

// setHealthy flips one worker's health and keeps the gauge consistent.
func (c *Coordinator) setHealthy(w *worker, ok bool) {
	c.fleetMu.Lock()
	changed := w.healthy != ok
	w.healthy = ok
	c.fleetMu.Unlock()
	if !changed {
		return
	}
	if ok {
		c.m.workersHealthy.Inc()
		c.log.Info("worker healthy", "worker", w.url)
	} else {
		c.m.workersHealthy.Dec()
		c.log.Warn("worker unhealthy", "worker", w.url)
	}
}

// pickWorker selects the least-loaded healthy worker — or, when the
// whole fleet looks down, the least-loaded worker regardless, so a
// recovered-but-not-yet-reprobed daemon gets a chance and a truly dead
// fleet fails fast through the attempt budget instead of hanging.
// Selection and load accounting happen under one lock, so concurrent
// shard dispatches spread across the fleet instead of dogpiling.
func (c *Coordinator) pickWorker() *worker {
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	best := c.workers[0]
	for _, w := range c.workers[1:] {
		if w.healthy != best.healthy {
			if w.healthy {
				best = w
			}
			continue
		}
		if w.active < best.active {
			best = w
		}
	}
	best.active++
	return best
}

// release undoes pickWorker's load accounting.
func (c *Coordinator) release(w *worker) {
	c.fleetMu.Lock()
	w.active--
	c.fleetMu.Unlock()
}

// shardRange is one contiguous slice of the parent grid.
type shardRange struct{ lo, hi int }

// partition splits n trials into k contiguous ranges whose sizes
// differ by at most one. k is clamped to [1, n].
func partition(n, k int) []shardRange {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]shardRange, k)
	for i := 0; i < k; i++ {
		out[i] = shardRange{lo: i * n / k, hi: (i + 1) * n / k}
	}
	return out
}

// shardState is one shard's contribution to the merged progress,
// guarded by the job-level mutex in Run.
type shardState struct {
	done   int
	failed int
	stats  json.RawMessage // shard's final stats array, set on success
}

// errShardFailed marks a deterministic shard failure (the campaign
// itself failed on the worker, not the worker): never redispatched.
var errShardFailed = errors.New("shard campaign failed")

// Run implements server.Backend: partition, dispatch, merge.
func (c *Coordinator) Run(ctx context.Context, j *server.Job) (*server.Result, error) {
	n := len(j.Request.Trials)
	k := j.Request.Shards
	if k == 0 {
		k = c.cfg.Shards
	}
	if k <= 0 {
		k = len(c.workers)
	}
	ranges := partition(n, k)
	jlog := c.log.With("job", j.ID)
	jlog.Info("dispatching campaign", "trials", n, "shards", len(ranges), "workers", len(c.workers))

	var (
		mu         sync.Mutex
		states     = make([]shardState, len(ranges))
		shardsDone int
	)
	j.SetShards(len(ranges), 0)
	// publishProgress recomputes the merged counters under mu and
	// pushes them to the job table.
	publishProgress := func() (done, failed int) {
		for i := range states {
			done += states[i].done
			failed += states[i].failed
		}
		j.SetProgress(done, failed)
		return done, failed
	}

	var wg sync.WaitGroup
	shardErrs := make([]error, len(ranges))
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shardErrs[i] = c.runShardWithRetry(ctx, j, ranges[i], &mu, &states[i], publishProgress)
			if shardErrs[i] == nil {
				mu.Lock()
				shardsDone++
				j.SetShards(len(ranges), shardsDone)
				mu.Unlock()
				c.m.outcomes.With("done").Inc()
			} else {
				c.m.outcomes.With("failed").Inc()
			}
		}(i)
	}
	wg.Wait()

	mu.Lock()
	done, failed := publishProgress()
	mu.Unlock()
	res := &server.Result{Done: done, Failed: failed}
	for i, err := range shardErrs {
		if err != nil {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			return res, fmt.Errorf("shard %d (trials %d-%d): %w",
				i, ranges[i].lo, ranges[i].hi-1, err)
		}
	}

	// Merge: concatenate the shards' stats arrays in shard order.
	// Re-marshalling []json.RawMessage compacts each element, which is
	// exactly the encoding an unsharded daemon produces — the merged
	// bytes are identical to a local run's.
	var merged []json.RawMessage
	for i := range states {
		var part []json.RawMessage
		if err := json.Unmarshal(states[i].stats, &part); err != nil {
			return res, fmt.Errorf("shard %d: decoding worker stats: %w", i, err)
		}
		if got, want := len(part), ranges[i].hi-ranges[i].lo; got != want {
			return res, fmt.Errorf("shard %d: worker returned %d stats, want %d", i, got, want)
		}
		merged = append(merged, part...)
	}
	stats, err := json.Marshal(merged)
	if err != nil {
		return res, fmt.Errorf("encoding merged stats: %w", err)
	}
	res.Stats = stats
	jlog.Info("campaign merged", "trials", done, "shards", len(ranges))
	return res, nil
}

// runShardWithRetry drives one shard to completion, redispatching on
// worker failure with capped backoff.
func (c *Coordinator) runShardWithRetry(ctx context.Context, j *server.Job, r shardRange,
	mu *sync.Mutex, st *shardState, publishProgress func() (int, int)) error {
	wait := backoff.New(c.cfg.RetryBackoff)
	var lastErr error
	for attempt := 0; attempt < c.cfg.ShardAttempts; attempt++ {
		if attempt > 0 {
			c.m.redispatches.Inc()
			if !wait.Wait(ctx) {
				return ctx.Err()
			}
			// A redispatched shard starts over; drop its stale
			// contribution so merged progress never double-counts.
			mu.Lock()
			st.done, st.failed = 0, 0
			publishProgress()
			mu.Unlock()
		}
		w := c.pickWorker()
		c.m.dispatched.Inc()
		start := time.Now()
		err := c.runShard(ctx, j, r, w, mu, st, publishProgress)
		c.release(w)
		switch {
		case err == nil:
			c.m.shardSeconds.Observe(time.Since(start).Seconds())
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, errShardFailed):
			return err
		}
		// Worker trouble: mark it down (the prober rights it when it
		// recovers) and try elsewhere.
		c.setHealthy(w, false)
		c.log.Warn("shard dispatch failed; redispatching",
			"job", j.ID, "trials_lo", r.lo, "trials_hi", r.hi,
			"worker", w.url, "attempt", attempt+1, "err", err)
		lastErr = err
	}
	return fmt.Errorf("gave up after %d attempts: %w", c.cfg.ShardAttempts, lastErr)
}

// permanentSubmit reports a submission verdict that retrying on
// another worker cannot change: the request itself was rejected.
// Quota/backpressure rejections (429, 503) and everything 5xx are
// worker conditions, not request defects.
func permanentSubmit(err error) bool {
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		return false
	}
	return apiErr.StatusCode >= 400 && apiErr.StatusCode < 500 &&
		apiErr.StatusCode != 429
}

// runShard executes one shard on one worker: submit the sub-campaign,
// stream its events (remapped into parent-grid coordinates) into the
// coordinator job's hub, and record the final stats. Any error other
// than errShardFailed means "worker trouble, try another".
func (c *Coordinator) runShard(ctx context.Context, j *server.Job, r shardRange, w *worker,
	mu *sync.Mutex, st *shardState, publishProgress func() (int, int)) error {
	req := *j.Request
	req.Name = fmt.Sprintf("%s[%d:%d]", j.Request.Name, r.lo, r.hi)
	req.Trials = j.Request.Trials[r.lo:r.hi]
	req.Shards = 0
	req.Shard = &api.ShardRange{
		Offset: j.SeedOffset + r.lo,
		Total:  j.SeedOffset + len(j.Request.Trials),
	}

	sub, err := w.client.Submit(ctx, &req)
	if err != nil {
		if permanentSubmit(err) {
			return fmt.Errorf("%w: worker %s rejected the shard: %v", errShardFailed, w.url, err)
		}
		return fmt.Errorf("submitting to %s: %w", w.url, err)
	}
	// Whatever happens next, never leave the sub-job running on a live
	// worker after we stop watching it (cancel, redispatch, error).
	finished := false
	defer func() {
		if finished {
			return
		}
		cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		w.client.Cancel(cctx, sub.ID) // best-effort
	}()

	total := len(j.Request.Trials)
	var final *api.JobStatus
	werr := w.client.Watch(ctx, sub.ID, 0, func(ev api.Event) error {
		switch ev.Type {
		case api.EventInterval:
			j.Publish(api.Event{
				Type: api.EventInterval, Trial: r.lo + ev.Trial,
				Label: ev.Label, Interval: ev.Interval,
			})
		case api.EventTrial:
			mu.Lock()
			st.done = ev.Done
			if ev.Err != "" {
				st.failed++
			}
			done, _ := publishProgress()
			mu.Unlock()
			j.Publish(api.Event{
				Type: api.EventTrial, Trial: r.lo + ev.Trial, Label: ev.Label,
				Done: done, Total: total, Seconds: ev.Seconds, Err: ev.Err,
			})
		case api.EventDone:
			final = ev.Status
		}
		return nil
	})
	if werr != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("watching %s on %s: %w", sub.ID, w.url, werr)
	}
	if final == nil {
		return fmt.Errorf("event stream of %s on %s ended without a final status", sub.ID, w.url)
	}
	finished = true
	switch final.State {
	case api.StateDone:
		mu.Lock()
		st.done = final.Done
		st.failed = final.Failed
		st.stats = final.Stats
		publishProgress()
		mu.Unlock()
		return nil
	case api.StateCancelled:
		// We did not cancel it; the worker side was interfered with.
		return fmt.Errorf("worker %s reported the shard cancelled", w.url)
	default:
		return fmt.Errorf("%w on worker %s: %s", errShardFailed, w.url, final.Error)
	}
}
