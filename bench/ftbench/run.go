package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// options are the settings of one workload run.
type options struct {
	seed   int64
	window time.Duration // the timed window; a traced run splits it in two
	traced bool
	tiny   bool   // tiny inputs, for probes and the smoke test
	dir    string // temporary files
}

func (o options) scale() int {
	if o.tiny {
		return 1
	}
	return 0
}

// Job index bases keep the inputs of every pass of a run distinct: the
// traced pass and the warm-up jobs never repeat a timed job's campaign.
const (
	tracedBase = 1_000_000
	warmBase   = 2_000_000
)

// setupReps is how many times an untraced run sets its workload up
// before its timed window, and again after it (once each at tiny scale,
// which keeps the smoke test short). setup_s is the median of these and
// of the set-ups between the window's segments, so it samples the host
// across the whole run rather than at one moment.
const setupReps = 8

// report is the outcome of one workload run.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	digests   []string
	spans     []span
}

// phase is one timed window of closed-loop jobs.
type phase struct {
	perClient [][]*job
	window    time.Duration
	trials    int
	insts     uint64
	latencies []float64       // of every job, in seconds
	rt        runtimeCounters // change over the timed segments
}

func (p *phase) jobs() int { return len(p.latencies) }

// harness runs one workload on its current fixture.
type harness struct {
	w      *workload
	opt    options
	fx     fixture
	setups int // fixtures started so far; each warms up on its own jobs
	// setupTimes holds how long each set-up of replace took, in seconds.
	setupTimes []float64
}

// setUp starts a fresh fixture and warms it with one short job per
// client, so lazy initialisation and first-use costs land in set-up.
func (h *harness) setUp(ctx context.Context) error {
	fx, err := h.w.start(h.w, h.opt.dir)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	warm := h.w.size(h.opt.scale())
	warm.insts = h.w.insts[1]
	if h.w.warmInsts > 0 && !h.opt.tiny {
		warm.insts = h.w.warmInsts
	}
	for c := range h.w.clients {
		req := h.w.warmRequest(h.opt.seed, c, warmBase+h.setups, warm)
		if _, err := fx.run(ctx, c, req, nil, nil); err != nil {
			return errors.Join(fmt.Errorf("warm-up: %w", err), fx.close())
		}
	}
	h.setups++
	h.fx = fx
	return nil
}

// replace closes the current fixture and times the set-up of a fresh
// one. The heap is collected first, off the clock, so that no set-up
// pays for collecting the garbage of what ran before it.
func (h *harness) replace(ctx context.Context) error {
	if err := h.close(); err != nil {
		return err
	}
	runtime.GC()
	t := time.Now()
	if err := h.setUp(ctx); err != nil {
		return err
	}
	h.setupTimes = append(h.setupTimes, time.Since(t).Seconds())
	return nil
}

// setUpRepeatedly replaces the fixture n times.
func (h *harness) setUpRepeatedly(ctx context.Context, n int) error {
	for range n {
		if err := h.replace(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (h *harness) close() error {
	if h.fx == nil {
		return nil
	}
	err := h.fx.close()
	h.fx = nil
	return err
}

// drive runs every client's closed loop until the window has passed and
// each client has run its minimum number of jobs. The window is cut into
// segments of segmentJobs jobs, and between two segments, off the clock,
// the fixture is replaced by a fresh one: a daemon keeps every finished
// job's programs, so one daemon serving a whole window would grow by
// gigabytes, and each replacement is a set-up that setup_s samples.
// With obs set, the change in the system's own counters over each
// segment goes to obs.
func (h *harness) drive(ctx context.Context, base int, window time.Duration, tr *tracer, obs *sample) (*phase, error) {
	w := h.w
	minJobs := w.minJobs[h.opt.scale()]
	p := &phase{perClient: make([][]*job, w.clients)}
	var timed time.Duration
	for {
		if timed > 0 {
			if err := h.replace(ctx); err != nil {
				return p, err
			}
		}
		var before map[string]float64
		if obs != nil {
			var err error
			if before, err = h.fx.scrape(ctx); err != nil {
				return p, err
			}
		}
		d, rt, err := h.segment(ctx, p, base, window-timed, minJobs, tr, obs)
		timed += d
		p.rt.add(rt)
		if err != nil {
			return p, err
		}
		if obs != nil {
			after, err := h.fx.scrape(ctx)
			if err != nil {
				return p, err
			}
			if err := h.fx.observe(before, after, obs); err != nil {
				return p, err
			}
		}
		done := timed >= window
		for _, jobs := range p.perClient {
			done = done && len(jobs) >= minJobs
		}
		if done {
			break
		}
	}
	p.window = timed
	for _, jobs := range p.perClient {
		for _, jb := range jobs {
			p.trials += jb.trials
			p.insts += jb.insts
			p.latencies = append(p.latencies, jb.latency.Seconds())
		}
	}
	return p, nil
}

// segment runs closed-loop jobs on the current fixture, appending them
// to p, until the remaining window has passed and every client has its
// minimum jobs, or until the segment's job budget is spent. It returns
// how long it ran and the runtime counters' change meanwhile.
func (h *harness) segment(ctx context.Context, p *phase, base int, remaining time.Duration, minJobs int, tr *tracer, obs *sample) (time.Duration, runtimeCounters, error) {
	w := h.w
	budget := int64(w.segmentJobs)
	var claimed atomic.Int64
	errs := make([]error, w.clients)
	rt0 := readRuntime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := len(p.perClient[c])
				if j >= minJobs && time.Since(start) >= remaining || claimed.Add(1) > budget {
					return
				}
				req := w.request(h.opt.seed, c, base+j, w.size(h.opt.scale()))
				jb, err := h.fx.run(ctx, c, req, tr, obs)
				if err != nil {
					errs[c] = fmt.Errorf("client %d job %d: %w", c, base+j, err)
					return
				}
				jb.client, jb.index = c, base+j
				p.perClient[c] = append(p.perClient[c], jb)
			}
		}()
	}
	wg.Wait()
	d, rt := time.Since(start), readRuntime()
	rt.sub(rt0)
	return d, rt, errors.Join(errs...)
}

// crossCheck re-runs every 20th job through ftsim.RunCampaign with the
// workload's check worker count; the statistics must match byte for
// byte. The ratio of the job's latency to the library run's goes to obs.
func crossCheck(ctx context.Context, w *workload, p *phase, obs *sample) error {
	for _, jobs := range p.perClient {
		for _, jb := range jobs {
			if jb.index%20 != 0 {
				continue
			}
			t := time.Now()
			want, err := runLibrary(ctx, jb.req, w.checkWorkers)
			lib := time.Since(t)
			if err != nil {
				return fmt.Errorf("cross-check of client %d job %d: %w", jb.client, jb.index, err)
			}
			if !bytes.Equal(want, jb.stats) {
				return fmt.Errorf("cross-check of client %d job %d: statistics differ from ftsim.RunCampaign with %d workers",
					jb.client, jb.index, w.checkWorkers)
			}
			obs.add("overhead", jb.latency.Seconds()/lib.Seconds())
		}
	}
	return nil
}

// digests hashes the statistics of each client's first minJobs jobs, in
// job order.
func digests(w *workload, p *phase, opt options) []string {
	var out []string
	for _, jobs := range p.perClient {
		h := sha256.New()
		for _, jb := range jobs[:w.minJobs[opt.scale()]] {
			h.Write(jb.stats)
			h.Write([]byte{'\n'})
		}
		out = append(out, hex.EncodeToString(h.Sum(nil)))
	}
	return out
}

// goldenJSON holds the digests seed 1 must reproduce at full scale.
//
//go:embed golden.json
var goldenJSON []byte

func checkGolden(w *workload, got []string) error {
	var golden map[string][]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[w.name]
	if !ok {
		return fmt.Errorf("golden.json has no digests for %s", w.name)
	}
	if fmt.Sprint(want) != fmt.Sprint(got) {
		return fmt.Errorf("seed 1 statistics digests %v, golden %v", got, want)
	}
	return nil
}

// attempts counts the operations a phase attempted: every trial, plus
// the submit, watch and status requests of each job sent to a daemon.
func attempts(w *workload, p *phase) int {
	if w.kind == "library" {
		return p.trials
	}
	return p.trials + 3*p.jobs()
}

// verify cross-checks a phase and, for seed 1 at full scale, compares
// its digests with the golden ones.
func verify(ctx context.Context, w *workload, p *phase, opt options, rep *report) error {
	if err := crossCheck(ctx, w, p, nil); err != nil {
		return err
	}
	rep.digests = digests(w, p, opt)
	if opt.seed == 1 && !opt.tiny {
		return checkGolden(w, rep.digests)
	}
	return nil
}

// runWorkload runs one workload and returns its end-to-end metrics, or
// with opt.traced its per-layer metrics. An error means a failed
// operation or a wrong result; the report then carries what was done.
func runWorkload(ctx context.Context, w *workload, opt options) (*report, error) {
	if opt.traced {
		return runTraced(ctx, w, opt)
	}
	rep := &report{}
	h := &harness{w: w, opt: opt}
	defer h.close()
	reps := setupReps
	if opt.tiny {
		reps = 1
	}
	if err := h.setUpRepeatedly(ctx, reps); err != nil {
		return rep, err
	}
	// peak_rss_mb covers the timed window: start it from a collected
	// heap with the high-water mark reset.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "ftbench: peak_rss_mb includes set-up:", err)
	}
	p, err := h.drive(ctx, 0, opt.window, nil, nil)
	rep.attempted = attempts(w, p)
	if err != nil {
		rep.failed = 1
		return rep, err
	}
	rss := peakRSSMB()
	if err := h.setUpRepeatedly(ctx, reps); err != nil {
		return rep, err
	}
	if err := h.close(); err != nil {
		return rep, err
	}
	if err := verify(ctx, w, p, opt, rep); err != nil {
		return rep, err
	}
	win := p.window.Seconds()
	rep.metrics = map[string]float64{
		"setup_s":            percentile(h.setupTimes, 50),
		"trials_per_s":       float64(p.trials) / win,
		"sim_minsts_per_s":   float64(p.insts) / win / 1e6,
		"job_p50_s":          percentile(p.latencies, 50),
		"cpu_ms_per_trial":   p.rt.procCPU * 1e3 / float64(p.trials),
		"peak_rss_mb":        rss,
		"alloc_mb_per_trial": float64(p.rt.allocBytes) / (1 << 20) / float64(p.trials),
	}
	return rep, nil
}

// runTraced runs the workload's first half-window untraced and its
// second traced, then fills the layers this workload does not cross
// from the layer probes and short traced runs of the daemon workloads.
func runTraced(ctx context.Context, w *workload, opt options) (*report, error) {
	rep := &report{}
	h := &harness{w: w, opt: opt}
	defer h.close()
	if err := h.setUp(ctx); err != nil {
		return rep, err
	}
	half := opt.window / 2
	p0, err := h.drive(ctx, 0, half, nil, nil)
	rep.attempted = attempts(w, p0)
	if err != nil {
		rep.failed = 1
		return rep, err
	}
	tr, obs := newTracer(), newSample()
	p1, err := h.drive(ctx, tracedBase, half, tr, obs)
	rep.attempted += attempts(w, p1)
	if err != nil {
		rep.failed = 1
		return rep, err
	}
	if err := h.close(); err != nil {
		return rep, err
	}
	rep.spans = tr.snapshot()
	if err := verify(ctx, w, p0, opt, rep); err != nil {
		return rep, err
	}
	if w.kind != "library" {
		// For the overhead ratios; library jobs have no serving overhead.
		if err := crossCheck(ctx, w, p1, obs); err != nil {
			return rep, err
		}
	}
	rep.metrics = layerMetrics(w, p1, obs)
	rep.metrics["trace.overhead_frac"] = 1 - (float64(p1.trials)/p1.window.Seconds())/(float64(p0.trials)/p0.window.Seconds())

	probe, err := probeLayers(ctx, opt.tiny)
	if err != nil {
		return rep, err
	}
	fill(rep.metrics, probe)
	probeOpt := opt
	probeOpt.tiny = true
	probeOpt.window = min(opt.window/4, 500*time.Millisecond)
	for _, o := range append(slices.Clone(workloads), journaled()) {
		if o.kind == "library" || o == w {
			continue
		}
		m, err := probeWorkload(ctx, o, probeOpt)
		if err != nil {
			return rep, fmt.Errorf("%s probe: %w", o.name, err)
		}
		fill(rep.metrics, m)
	}
	for _, d := range perLayer {
		if v, ok := rep.metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	return rep, nil
}

// journaled is the service workload on a daemon that journals every job
// to a data directory. The measured workload runs an ephemeral daemon,
// because an fsync on a shared disk takes several times longer in one
// run than in the next; the journal's work is counted on this one
// instead, as syncs and bytes per trial.
func journaled() *workload {
	j := *workloadByName("service-small-jobs")
	j.journal = true
	return &j
}

// probeWorkload is a short traced run of a workload at tiny scale, for
// the per-layer metrics of layers another workload does not cross.
func probeWorkload(ctx context.Context, w *workload, opt options) (map[string]float64, error) {
	h := &harness{w: w, opt: opt}
	defer h.close()
	if err := h.setUp(ctx); err != nil {
		return nil, err
	}
	obs := newSample()
	p, err := h.drive(ctx, tracedBase, opt.window, nil, obs)
	if err != nil {
		return nil, err
	}
	if err := h.close(); err != nil {
		return nil, err
	}
	if err := crossCheck(ctx, w, p, obs); err != nil {
		return nil, err
	}
	return layerMetrics(w, p, obs), nil
}

// fill copies the metrics dst lacks from src.
func fill(dst, src map[string]float64) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

// layerMetrics turns a traced phase's observations into the per-layer
// metrics of the layers its workload crosses.
func layerMetrics(w *workload, p *phase, obs *sample) map[string]float64 {
	trials, jobs := float64(p.trials), float64(p.jobs())
	m := map[string]float64{
		"campaign.trial_s_p50":   obs.pct("trial_s", 50),
		"campaign.trial_s_p90":   obs.pct("trial_s", 90),
		"campaign.busy_frac":     obs.sum("busy_trial_s") / obs.sum("busy_capacity_s"),
		"go.gc_cycles_per_trial": float64(p.rt.gcCycles) / trials,
		"go.gc_cpu_frac":         p.rt.gcCPU / p.rt.totalCPU,
	}
	if w.journal {
		m["campaign.ckpt_syncs_per_trial"] = obs.sum("ckpt_syncs") / trials
		m["campaign.ckpt_kb_per_trial"] = obs.sum("ckpt_bytes") / 1024 / trials
	}
	if w.kind == "library" {
		return m
	}
	for k, v := range map[string]float64{
		"api.parse_ms_p50":             obs.pct("parse_ms", 50),
		"api.request_kb":               obs.mean("request_kb"),
		"api.stats_kb_per_trial":       obs.sum("stats_kb") / trials,
		"api.stats_decode_ms_p50":      obs.pct("decode_ms", 50),
		"server.submit_ms_p50":         obs.pct("submit_ms", 50),
		"server.submit_ms_p99":         obs.pct("submit_ms", 99),
		"server.queue_wait_ms_p50":     obs.pct("queue_wait_ms", 50),
		"server.run_ms_p50":            obs.pct("run_ms", 50),
		"server.status_ms_p50":         obs.pct("status_ms", 50),
		"server.http_requests_per_job": obs.sum("http_requests") / jobs,
		"server.non_trial_frac":        1 - obs.sum("busy_trial_s")/obs.sum("latency_capacity_s"),
		"sse.first_event_ms_p50":       obs.pct("first_event_ms", 50),
		"sse.done_lag_ms_p50":          obs.pct("done_lag_ms", 50),
		"sse.events_per_job":           obs.mean("events"),
		"sse.dropped_intervals":        obs.sum("dropped_intervals"),
		"sse.evictions":                obs.sum("evictions"),
	} {
		m[k] = v
	}
	if w.kind == "service" {
		m["server.overhead_ratio"] = obs.pct("overhead", 50)
		return m
	}
	m["coord.overhead_ratio"] = obs.pct("overhead", 50)
	m["coord.shard_s_mean"] = obs.sum("shard_seconds") / obs.sum("shards_done")
	m["coord.shards_per_job"] = obs.sum("shards_dispatched") / jobs
	return m
}
