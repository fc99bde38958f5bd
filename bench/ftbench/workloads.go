package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/ftsim"
	"repro/ftsim/api"
	"repro/ftsim/client"
	"repro/internal/coord"
	"repro/internal/server"
)

// workload is one traffic mix. Its inputs are campaign requests drawn
// from the run's seed; job j of client c is the same request on every
// run with that seed, and no two jobs share a campaign seed. Only the
// eleven Table 2 programs repeat across jobs, as in real traffic.
type workload struct {
	name string
	// kind is how jobs reach the simulator: "library" calls
	// ftsim.RunCampaign in-process, "service" goes through one ftsimd
	// and "coord" through a coordinator in front of worker daemons.
	kind string
	// clients is the number of closed-loop callers: each sends its next
	// job only when the previous one has finished.
	clients int
	// insts is the per-trial instruction budget at full and tiny scale.
	insts [2]uint64
	// warmInsts, when set, is the per-trial budget of the warm-up jobs at
	// full scale; otherwise they run at the tiny budget.
	warmInsts uint64
	// minJobs is how many jobs each client runs even past the timed
	// window; at full scale the golden digests cover exactly these.
	minJobs [2]int
	// checkWorkers is the worker count of the library run that every
	// 20th job's statistics are cross-checked against.
	checkWorkers int
	// segmentJobs is how many jobs one fixture serves before it is
	// replaced off the clock (see harness.drive).
	segmentJobs int
	// journal makes the service daemon persist to a data directory; only
	// the journal probe sets it (see journaled).
	journal bool
	request func(seed int64, client, j int, sz size) *api.CampaignRequest
	// warm, when set, is the warm-up job of a set-up in place of request.
	warm  func(seed int64, client, j int, sz size) *api.CampaignRequest
	start func(w *workload, dir string) (fixture, error)
}

var workloads = []*workload{
	{
		name: "fig5-steady", kind: "library", clients: 1, checkWorkers: 1,
		insts: [2]uint64{200_000, 300}, minJobs: [2]int{2, 1},
		segmentJobs: 1,
		request:     fig5Request, start: startLibrary,
	},
	{
		// The warm-up builds only two programs: at the tiny budget a
		// set-up lasts about 6 ms, and a stall of the host moves it by a
		// third. With 2k-inst trials it is about 30 ms, most of it
		// simulation.
		name: "fig6-faults", kind: "library", clients: 1, checkWorkers: 1,
		insts: [2]uint64{100_000, 300}, warmInsts: 2_000, minJobs: [2]int{4, 1},
		segmentJobs: 1,
		request:     fig6Request, start: startLibrary,
	},
	{
		name: "service-small-jobs", kind: "service", clients: 2,
		insts: [2]uint64{2_000, 300}, minJobs: [2]int{16, 2},
		checkWorkers: 1, segmentJobs: 50,
		request: serviceRequest, warm: serviceWarmRequest, start: startService,
	},
	{
		name: "coord-sharded", kind: "coord", clients: 1,
		insts: [2]uint64{10_000, 300}, minJobs: [2]int{4, 1},
		checkWorkers: 2, segmentJobs: 10,
		request: coordRequest, start: startCoord,
	},
}

// size is the input size of a job.
type size struct {
	insts   uint64   // per-trial instruction budget
	benches []string // the Table 2 programs a job draws from
}

// tinyBenchmarks are the programs of tiny-scale jobs, so the smoke test
// builds two programs per job rather than eleven.
var tinyBenchmarks = []string{"gcc", "fpppp"}

// size returns the job size at full (0) or tiny (1) scale.
func (w *workload) size(scale int) size {
	if scale == 1 {
		return size{w.insts[1], tinyBenchmarks}
	}
	return size{w.insts[0], ftsim.Benchmarks()}
}

// warmRequest is the warm-up job j of client c.
func (w *workload) warmRequest(seed int64, c, j int, sz size) *api.CampaignRequest {
	if w.warm != nil {
		return w.warm(seed, c, j, sz)
	}
	return w.request(seed, c, j, sz)
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// jobRNG is the random stream of one job: a pure function of the run's
// seed, the client and the job index.
func jobRNG(seed int64, client, j int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(client)<<40|uint64(j)))
}

// campaignSeed draws a job's campaign seed; 0 would mean 1 on the wire.
func campaignSeed(r *rand.Rand) int64 { return int64(r.Uint64()>>2) + 1 }

// jitter adds up to 1% to a trial budget, so trials of different jobs
// differ in length as well as in seed.
func jitter(r *rand.Rand, insts uint64) uint64 { return insts + r.Uint64N(insts/100+1) }

func withBudget(m ftsim.Model, insts uint64) ftsim.Config {
	c := m.Config()
	c.MaxInsts = insts
	return c
}

var allTargets = ftsim.AllFaultTargets()

// fig5Grid is the Fig 5 grid, each benchmark on SS-1, Static-2 and
// SS-2; faultRate, when positive, injects faults on the SS-2 trials.
func fig5Grid(r *rand.Rand, sz size, faultRate float64) []api.TrialSpec {
	var trials []api.TrialSpec
	for _, b := range sz.benches {
		for _, m := range []ftsim.Model{ftsim.ModelSS1, ftsim.ModelStatic2, ftsim.ModelSS2} {
			c := withBudget(m, jitter(r, sz.insts))
			if m == ftsim.ModelSS2 && faultRate > 0 {
				c.Fault = ftsim.FaultConfig{Rate: faultRate, Targets: allTargets}
			}
			trials = append(trials, api.TrialSpec{Label: "fig5/" + b + "/" + string(m), Benchmark: b, Config: c})
		}
	}
	return trials
}

func fig5Request(seed int64, client, j int, sz size) *api.CampaignRequest {
	r := jobRNG(seed, client, j)
	return &api.CampaignRequest{Name: "fig5", Seed: campaignSeed(r), Trials: fig5Grid(r, sz, 0)}
}

// fig6Request is the Fig 6 comparison at three fault rates: R=2 rewind
// against R=3 majority election, on all fault targets.
func fig6Request(seed int64, client, j int, sz size) *api.CampaignRequest {
	r := jobRNG(seed, client, j)
	req := &api.CampaignRequest{Name: "fig6", Seed: campaignSeed(r)}
	for _, b := range []string{"fpppp", "gcc"} {
		for _, m := range []ftsim.Model{ftsim.ModelSS2, ftsim.ModelSS3} {
			for _, rate := range []float64{1e-4, 1e-3, 1e-2} {
				c := withBudget(m, jitter(r, sz.insts))
				c.Fault = ftsim.FaultConfig{Rate: rate, Targets: allTargets}
				req.Trials = append(req.Trials, api.TrialSpec{
					Label: fmt.Sprintf("fig6/%s/%s@%g", b, m, rate), Benchmark: b, Config: c,
				})
			}
		}
	}
	return req
}

// loopSrc is the hand-written program about one trial in eight of the
// service workload runs instead of a Table 2 benchmark: strided loads
// and stores over a 4 KB buffer feeding a multiply chain.
const loopSrc = `
.data
buf:    .space 4096
.text
        li   r1, 0
        li   r6, 1
        la   r2, buf
loop:   andi r3, r1, 511
        slli r3, r3, 3
        add  r4, r2, r3
        ld   r5, 0(r4)
        add  r5, r5, r1
        mul  r6, r6, r5
        addi r6, r6, 7
        sd   r6, 0(r4)
        addi r1, r1, 1
        slti r7, r1, 100000000
        bne  r7, r0, loop
        out  r6
        halt
`

// serviceRequest is a small job of four short trials on a random model;
// half of the redundant trials inject faults.
func serviceRequest(seed int64, client, j int, sz size) *api.CampaignRequest {
	r := jobRNG(seed, client, j)
	req := &api.CampaignRequest{Name: "small", Seed: campaignSeed(r)}
	models := []ftsim.Model{ftsim.ModelSS1, ftsim.ModelStatic2, ftsim.ModelSS2, ftsim.ModelSS3}
	for i := range 4 {
		c := withBudget(models[r.IntN(len(models))], jitter(r, sz.insts))
		if c.R >= 2 && r.IntN(2) == 0 {
			c.Fault = ftsim.FaultConfig{Rate: 1e-3, Targets: allTargets}
		}
		ts := api.TrialSpec{Config: c}
		if r.IntN(8) == 0 {
			ts.Label, ts.Asm = fmt.Sprintf("loop/%d", i), loopSrc
		} else {
			ts.Benchmark = sz.benches[r.IntN(len(sz.benches))]
		}
		req.Trials = append(req.Trials, ts)
	}
	return req
}

// serviceWarmRequest is the service workload's warm-up job: one trial of
// every program its jobs draw from, the loop included, so that each
// set-up builds the same programs whatever the seed. A job of four
// drawn programs would make set-up time depend on which were drawn.
func serviceWarmRequest(seed int64, client, j int, sz size) *api.CampaignRequest {
	r := jobRNG(seed, client, j)
	req := &api.CampaignRequest{Name: "warm", Seed: campaignSeed(r)}
	models := []ftsim.Model{ftsim.ModelSS1, ftsim.ModelStatic2, ftsim.ModelSS2, ftsim.ModelSS3}
	for i, b := range sz.benches {
		req.Trials = append(req.Trials, api.TrialSpec{Benchmark: b, Config: withBudget(models[i%len(models)], sz.insts)})
	}
	req.Trials = append(req.Trials, api.TrialSpec{Label: "loop", Asm: loopSrc, Config: withBudget(ftsim.ModelSS1, sz.insts)})
	return req
}

// coordRequest is the Fig 5 grid with faults at 1e-3 on the SS-2 trials.
func coordRequest(seed int64, client, j int, sz size) *api.CampaignRequest {
	r := jobRNG(seed, client, j)
	return &api.CampaignRequest{Name: "fig5-faults", Seed: campaignSeed(r), Trials: fig5Grid(r, sz, 1e-3)}
}

// compile turns a request into the library's trial grid the way a
// daemon does: each distinct program is built once per job.
func compile(req *api.CampaignRequest) ([]ftsim.Trial, error) {
	programs := make(map[string]*ftsim.Program)
	trials := make([]ftsim.Trial, len(req.Trials))
	for i, ts := range req.Trials {
		var p *ftsim.Program
		var err error
		if ts.Asm != "" {
			p, err = ftsim.Assemble(ts.Label+".s", ts.Asm)
		} else if p = programs[ts.Benchmark]; p == nil {
			p, err = ftsim.Benchmark(ts.Benchmark)
			programs[ts.Benchmark] = p
		}
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		trials[i] = ftsim.Trial{Label: ts.Label, Config: ts.Config.Normalized(), Program: p}
	}
	return trials, nil
}

// runLibrary runs a request through ftsim.RunCampaign and returns its
// statistics in the daemon's wire encoding.
func runLibrary(ctx context.Context, req *api.CampaignRequest, workers int) ([]byte, error) {
	trials, err := compile(req)
	if err != nil {
		return nil, err
	}
	rep, err := ftsim.RunCampaign(ctx, req.Name, trials, ftsim.WithWorkers(workers), ftsim.WithCampaignSeed(req.Seed))
	if err != nil {
		return nil, err
	}
	stats, err := ftsim.CollectStats(rep)
	if err != nil {
		return nil, err
	}
	return json.Marshal(stats)
}

// job is one completed job.
type job struct {
	client, index int
	req           *api.CampaignRequest
	latency       time.Duration
	trials        int
	insts         uint64 // committed simulated instructions, all trials
	stats         []byte // per-trial statistics as the daemon serves them
}

// fixture is one set-up instance of a workload: programs built, daemons
// listening, caches warm.
type fixture interface {
	// run executes one job. Observations of the layers it crosses go to
	// obs and spans to tr; both are nil in untraced runs.
	run(ctx context.Context, client int, req *api.CampaignRequest, tr *tracer, obs *sample) (*job, error)
	// scrape reads the system's own counters.
	scrape(ctx context.Context) (map[string]float64, error)
	// observe records the change in scraped counters over a traced
	// stretch of jobs as layer observations.
	observe(before, after map[string]float64, obs *sample) error
	close() error
}

// statsSummary decodes served statistics and counts their committed
// instructions.
func statsSummary(data []byte, want int) (uint64, error) {
	var stats []*ftsim.Stats
	if err := json.Unmarshal(data, &stats); err != nil {
		return 0, fmt.Errorf("decoding stats: %w", err)
	}
	if len(stats) != want {
		return 0, fmt.Errorf("got statistics of %d trials, want %d", len(stats), want)
	}
	var n uint64
	for _, st := range stats {
		n += st.Committed
	}
	return n, nil
}

// library runs jobs in-process through ftsim.RunCampaign, one grid at a
// time on every CPU, as a study script does.
type library struct {
	reg     *ftsim.MetricsRegistry
	sink    *ftsim.CampaignMetrics
	workers int
}

func startLibrary(w *workload, dir string) (fixture, error) {
	reg := ftsim.NewMetricsRegistry()
	return &library{reg: reg, sink: ftsim.NewCampaignMetrics(reg), workers: runtime.GOMAXPROCS(0)}, nil
}

func (l *library) run(ctx context.Context, client int, req *api.CampaignRequest, tr *tracer, obs *sample) (*job, error) {
	trace := tr.newTrace()
	t0 := time.Now()
	root := tr.begin(trace, 0, "job")
	sp := tr.begin(trace, root, "workload.build")
	trials, err := compile(req)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	run := tr.begin(trace, root, "campaign.run")
	rep, err := ftsim.RunCampaign(ctx, req.Name, trials,
		ftsim.WithWorkers(l.workers),
		ftsim.WithCampaignSeed(req.Seed),
		ftsim.WithMetricsSink(l.sink),
		ftsim.WithCampaignProgress(func(done, total int, r ftsim.TrialResult) {
			now := time.Now()
			tr.add(trace, run, "campaign.trial", now.Add(-r.Elapsed), now)
			obs.add("trial_s", r.Elapsed.Seconds())
		}))
	tr.end(run)
	tr.end(root)
	latency := time.Since(t0)
	if err != nil {
		return nil, err
	}
	stats, err := ftsim.CollectStats(rep)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(stats)
	if err != nil {
		return nil, err
	}
	j := &job{req: req, latency: latency, trials: len(trials), stats: data}
	for _, st := range stats {
		j.insts += st.Committed
	}
	if obs != nil {
		obs.add("busy_trial_s", rep.TrialSeconds.Sum())
		obs.add("busy_capacity_s", rep.Wall.Seconds()*float64(rep.Workers))
	}
	return j, nil
}

func (l *library) scrape(ctx context.Context) (map[string]float64, error) {
	var b strings.Builder
	if err := l.reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseExposition(b.String()), nil
}

func (l *library) observe(before, after map[string]float64, obs *sample) error {
	observeCampaign(before, after, obs)
	return nil
}

func (l *library) close() error { return nil }

// observeCampaign records the change in the campaign engine's
// checkpoint counters.
func observeCampaign(before, after map[string]float64, obs *sample) {
	obs.add("ckpt_syncs", after["ftsim_checkpoint_syncs_total"]-before["ftsim_checkpoint_syncs_total"])
	obs.add("ckpt_bytes", after["ftsim_checkpoint_synced_bytes_total"]-before["ftsim_checkpoint_synced_bytes_total"])
}

// daemon is one in-process ftsimd on a loopback TCP port, built with
// the same constructors cmd/ftsimd calls.
type daemon struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

func startDaemon(cfg server.Config) (*daemon, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Drain(context.Background())
		return nil, err
	}
	d := &daemon{srv: s, http: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.srv.Drain(ctx))
}

// service drives a daemon through ftsim/client: each job is submitted,
// watched over SSE to its done event, then fetched with its statistics.
// A coordinator in front of worker daemons is driven the same way.
type service struct {
	front     *daemon
	workers   []*daemon
	coord     *coord.Coordinator
	transport *http.Transport
	clients   []*client.Client
	// jobWorkers is the number of trials of one job that run at once.
	jobWorkers int
	// dataDir is removed on close.
	dataDir string
}

func newService(w *workload, front *daemon, jobWorkers int) *service {
	s := &service{front: front, jobWorkers: jobWorkers, transport: &http.Transport{MaxIdleConnsPerHost: w.clients}}
	for c := range w.clients {
		s.clients = append(s.clients, &client.Client{
			BaseURL:    front.url,
			Token:      fmt.Sprintf("client-%d", c),
			HTTPClient: &http.Client{Transport: s.transport},
		})
	}
	return s
}

// startService is the service workload's daemon: ephemeral (ftsimd's
// default), two jobs at a time, one simulation worker per job. With
// w.journal it persists to a fresh data directory instead, with an
// fsync per trial (ftsimd's -flush-every default).
func startService(w *workload, dir string) (fixture, error) {
	cfg := server.Config{Concurrency: 2, WorkersPerJob: 1}
	if w.journal {
		data, err := os.MkdirTemp(dir, "ftsimd-")
		if err != nil {
			return nil, err
		}
		cfg.DataDir = data
	}
	d, err := startDaemon(cfg)
	if err != nil {
		os.RemoveAll(cfg.DataDir)
		return nil, err
	}
	s := newService(w, d, 1)
	s.dataDir = cfg.DataDir
	return s, nil
}

// startCoord is a coordinator daemon in front of two ephemeral worker
// daemons with one simulation worker each; every job is split into one
// shard per worker.
func startCoord(w *workload, dir string) (fixture, error) {
	var workers []*daemon
	var urls []string
	fail := func(err error) (fixture, error) {
		for _, d := range workers {
			d.stop()
		}
		return nil, err
	}
	for range 2 {
		d, err := startDaemon(server.Config{WorkersPerJob: 1})
		if err != nil {
			return fail(err)
		}
		workers = append(workers, d)
		urls = append(urls, d.url)
	}
	reg := ftsim.NewMetricsRegistry()
	co, err := coord.New(coord.Config{Workers: urls, Registry: reg})
	if err != nil {
		return fail(err)
	}
	front, err := startDaemon(server.Config{Backend: co, Registry: reg})
	if err != nil {
		co.Close()
		return fail(err)
	}
	s := newService(w, front, len(workers))
	s.workers, s.coord = workers, co
	return s, nil
}

func (s *service) close() error {
	s.transport.CloseIdleConnections()
	err := s.front.stop()
	if s.coord != nil {
		s.coord.Close()
	}
	for _, d := range s.workers {
		err = errors.Join(err, d.stop())
	}
	if s.dataDir != "" {
		err = errors.Join(err, os.RemoveAll(s.dataDir))
	}
	return err
}

func (s *service) run(ctx context.Context, c int, req *api.CampaignRequest, tr *tracer, obs *sample) (*job, error) {
	cl := s.clients[c]
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if obs != nil {
		t := time.Now()
		if _, err := api.ParseSubmission(body); err != nil {
			return nil, err
		}
		obs.add("parse_ms", ms(time.Since(t)))
		obs.add("request_kb", float64(len(body))/1024)
	}

	trace := tr.newTrace()
	t0 := time.Now()
	root := tr.begin(trace, 0, "job")
	sp := tr.begin(trace, root, "server.submit")
	st, err := cl.SubmitRaw(ctx, body)
	tr.end(sp)
	submitted := time.Now()
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}

	watch := tr.begin(trace, root, "sse.watch")
	watchStart := time.Now()
	events := 0
	var trialSecs float64
	var doneAt time.Time
	var final *api.JobStatus
	err = cl.Watch(ctx, st.ID, 0, func(ev api.Event) error {
		now := time.Now()
		if events == 0 {
			tr.add(trace, watch, "sse.first_event", watchStart, now)
			obs.add("first_event_ms", ms(now.Sub(watchStart)))
		}
		events++
		switch ev.Type {
		case api.EventTrial:
			if ev.Err != "" {
				return fmt.Errorf("trial %d failed: %s", ev.Trial, ev.Err)
			}
			trialSecs += ev.Seconds
			tr.add(trace, watch, "campaign.trial", now.Add(-time.Duration(ev.Seconds*float64(time.Second))), now)
			obs.add("trial_s", ev.Seconds)
		case api.EventDone:
			doneAt, final = now, ev.Status
		}
		return nil
	})
	tr.end(watch)
	if err != nil {
		return nil, fmt.Errorf("watch %s: %w", st.ID, err)
	}
	if final == nil || final.State != api.StateDone {
		return nil, fmt.Errorf("job %s ended %v", st.ID, final)
	}

	sp = tr.begin(trace, root, "server.status")
	t := time.Now()
	full, err := cl.Status(ctx, st.ID)
	statusDur := time.Since(t)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("status %s: %w", st.ID, err)
	}
	sp = tr.begin(trace, root, "api.stats_decode")
	t = time.Now()
	insts, err := statsSummary(full.Stats, len(req.Trials))
	decodeDur := time.Since(t)
	tr.end(sp)
	tr.end(root)
	latency := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("job %s: %w", st.ID, err)
	}
	// The daemon indents its responses; the canonical form of the
	// statistics is the compact encoding the campaign engine produces.
	var stats bytes.Buffer
	if err := json.Compact(&stats, full.Stats); err != nil {
		return nil, fmt.Errorf("job %s: %w", st.ID, err)
	}

	if obs != nil && full.Started != nil && full.Finished != nil {
		obs.add("submit_ms", ms(submitted.Sub(t0)))
		obs.add("status_ms", ms(statusDur))
		obs.add("decode_ms", ms(decodeDur))
		obs.add("stats_kb", float64(len(full.Stats))/1024)
		obs.add("queue_wait_ms", ms(full.Started.Sub(full.Submitted)))
		obs.add("run_ms", ms(full.Finished.Sub(*full.Started)))
		obs.add("busy_capacity_s", full.Finished.Sub(*full.Started).Seconds()*float64(s.jobWorkers))
		obs.add("done_lag_ms", ms(doneAt.Sub(*full.Finished)))
		obs.add("events", float64(events))
		obs.add("busy_trial_s", trialSecs)
		obs.add("latency_capacity_s", latency.Seconds()*float64(s.jobWorkers))
	}
	return &job{req: req, latency: latency, trials: len(req.Trials), insts: insts, stats: stats.Bytes()}, nil
}

func (s *service) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.front.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.clients[0].HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseExposition(string(text)), nil
}

func (s *service) observe(before, after map[string]float64, obs *sample) error {
	d := func(k string) float64 { return after[k] - before[k] }
	observeCampaign(before, after, obs)
	obs.add("http_requests", d("ftsimd_http_requests_total"))
	obs.add("dropped_intervals", d("ftsimd_sse_dropped_interval_events_total"))
	obs.add("evictions", d("ftsimd_sse_evictions_total"))
	if s.coord == nil {
		return nil
	}
	if n := d("ftsimd_coord_shard_redispatches_total"); n != 0 {
		return fmt.Errorf("coordinator redispatched %v shards on a healthy fleet", n)
	}
	obs.add("shard_seconds", d("ftsimd_coord_shard_seconds_sum"))
	obs.add("shards_done", d("ftsimd_coord_shard_seconds_count"))
	obs.add("shards_dispatched", d("ftsimd_coord_shards_dispatched_total"))
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
