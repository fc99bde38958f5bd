// Package server implements ftsimd: a campaign service over the
// embeddable ftsim API. Clients POST campaign grids as JSON (the
// ftsim.Config wire format), the server queues them onto job slots
// backed by the campaign worker pool, streams per-interval progress
// and per-trial completions over SSE, and journals completed trials to
// a data directory so a restarted daemon resumes unfinished campaigns
// where they stopped.
//
// Endpoints:
//
//	POST   /v1/campaigns             submit (api.CampaignRequest or bare ftsim.Config)
//	GET    /v1/campaigns             list jobs, submission order
//	GET    /v1/campaigns/{id}        status + aggregate stats when done
//	GET    /v1/campaigns/{id}/events SSE stream (api.Event records)
//	DELETE /v1/campaigns/{id}        cancel
//	GET    /healthz                  liveness + readiness (503 while draining)
//	GET    /metrics                  Prometheus text exposition
//	GET    /version                  build metadata
package server

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/ftsim"
	"repro/ftsim/api"
	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/sse"
)

// maxBodyBytes bounds submission bodies; a campaign grid of thousands
// of trials fits comfortably.
const maxBodyBytes = 16 << 20

// Config parameterises a Server. The zero value is usable: an
// ephemeral in-memory daemon with sane limits.
type Config struct {
	// DataDir is the persistence root: one file per job, <id>.ckpt,
	// the job's checkpoint journal, which also holds its submission
	// and terminal records. Empty disables persistence — jobs then die
	// with the process.
	DataDir string
	// MaxQueue bounds jobs waiting to run, across all clients
	// (submissions beyond it fail with 503). <= 0 means 64.
	MaxQueue int
	// Concurrency is the number of jobs running simultaneously; each
	// job parallelises internally over WorkersPerJob. <= 0 means 1.
	Concurrency int
	// WorkersPerJob is the default campaign worker-pool size per job
	// (0 = GOMAXPROCS); a request's Workers field overrides it.
	WorkersPerJob int
	// MaxQueuedPerClient bounds one client's queued+running jobs
	// (429 beyond it). <= 0 means 16.
	MaxQueuedPerClient int
	// MaxTrialsPerClient bounds one client's total trials across its
	// queued and running jobs (429 beyond it). <= 0 means 1_000_000.
	MaxTrialsPerClient int
	// DefaultBenchmark is the workload of trials that name none.
	// Empty means "gcc".
	DefaultBenchmark string
	// DefaultMaxInsts is the instruction budget applied to submitted
	// configs with no run limits. <= 0 means 200_000.
	DefaultMaxInsts uint64
	// ObserveEvery is the SSE interval-sample period in simulated
	// cycles. <= 0 means ftsim.DefaultObserveEvery.
	ObserveEvery uint64
	// FlushEvery is the checkpoint journal's fsync batch size. <= 0
	// means 1: every completed trial is durable immediately, which is
	// what a long-lived service wants.
	FlushEvery int
	// TrialTimeout, when positive, bounds each trial attempt.
	TrialTimeout time.Duration
	// AuthToken, when non-empty, locks the API behind a shared bearer
	// token: every request except /healthz, /metrics and /version must
	// carry "Authorization: Bearer <token>" or is refused with 401.
	// Empty leaves the daemon open (trusted-network deployments).
	AuthToken string
	// Backend executes admitted jobs. nil selects the local campaign
	// engine; a coordinator daemon installs a distributed backend that
	// shards jobs across worker daemons. Everything around execution —
	// admission, queueing, SSE, persistence — is the same either way.
	Backend Backend
	// Logger receives structured operational logs; nil discards them.
	// Request- and job-scoped loggers derive from it with "req" and
	// "job" attributes attached.
	Logger *slog.Logger
	// Registry receives the server's metric families (and the campaign
	// engine's, shared across all jobs). nil creates a private registry;
	// either way GET /metrics on the Handler serves it.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 1
	}
	if c.MaxQueuedPerClient <= 0 {
		c.MaxQueuedPerClient = 16
	}
	if c.MaxTrialsPerClient <= 0 {
		c.MaxTrialsPerClient = 1_000_000
	}
	if c.DefaultBenchmark == "" {
		c.DefaultBenchmark = "gcc"
	}
	if c.DefaultMaxInsts == 0 {
		c.DefaultMaxInsts = 200_000
	}
	if c.ObserveEvery == 0 {
		c.ObserveEvery = ftsim.DefaultObserveEvery
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 1
	}
	return c
}

// Server is the campaign service: job table, bounded queue, scheduler
// slots and the HTTP surface. Create with New, serve Handler, stop
// with Drain.
type Server struct {
	cfg     Config
	logger  *slog.Logger
	m       *metrics
	runCtx  context.Context
	stopRun context.CancelFunc

	// programs is the daemon's table of Table 2 programs: each is built
	// on the first job that runs it locally and shared by every later
	// one (a Program is immutable and loads concurrently).
	programs map[string]func() (*ftsim.Program, error)

	admission sync.Mutex // serialises admit; taken before mu

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	order    []string // submission order, for listing
	fifo     []*job   // queued jobs awaiting a scheduler slot
	draining bool

	wg sync.WaitGroup // scheduler goroutines
}

// New builds a Server, recovers any persisted jobs from cfg.DataDir
// (re-queueing interrupted ones), and starts the scheduler slots.
func New(cfg Config) (*Server, error) {
	s := &Server{cfg: cfg.withDefaults(), jobs: make(map[string]*job)}
	s.logger = s.cfg.Logger
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	reg := s.cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.m = newMetrics(reg)
	s.programs = make(map[string]func() (*ftsim.Program, error))
	for _, name := range ftsim.Benchmarks() {
		s.programs[name] = sync.OnceValues(func() (*ftsim.Program, error) { return ftsim.Benchmark(name) })
	}
	s.cond = sync.NewCond(&s.mu)
	s.runCtx, s.stopRun = context.WithCancel(context.Background())
	if err := s.recover(); err != nil {
		return nil, fmt.Errorf("server: recovering %s: %w", s.cfg.DataDir, err)
	}
	for i := 0; i < s.cfg.Concurrency; i++ {
		s.wg.Add(1)
		go s.scheduler()
	}
	return s, nil
}

// Drain gracefully shuts the server down: admission stops (503s),
// queued jobs stay queued, and running campaigns are cancelled so they
// flush their checkpoint journals and return — a restarted daemon
// resumes them. Drain waits for the scheduler slots until ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.stopRun()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// newJobID mints a random, filesystem-safe job identifier.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "c" + hex.EncodeToString(b[:])
}

// owner extracts the client identity a submission is accounted to.
func owner(r *http.Request) string {
	if tok := r.Header.Get("X-FTSim-Client"); tok != "" {
		return tok
	}
	return "default"
}

// Handler returns the HTTP surface, wrapped in the request-ID and
// metrics middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.m.reg.Handler())
	mux.HandleFunc("GET /version", s.handleVersion)
	return s.instrument(mux, s.requireAuth(mux))
}

// requireAuth gates the campaign API behind the shared bearer token
// when one is configured. Probe endpoints stay open: health checks and
// scrapers predate any token distribution, and they expose no campaign
// data or mutation. Comparison is constant-time; note the X-FTSim-Client
// header remains a self-reported accounting label, never a credential.
func (s *Server) requireAuth(next http.Handler) http.Handler {
	if s.cfg.AuthToken == "" {
		return next
	}
	want := []byte("Bearer " + s.cfg.AuthToken)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/metrics", "/version":
			next.ServeHTTP(w, r)
			return
		}
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="ftsimd"`)
			fail(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func fail(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.Error{Message: fmt.Sprintf(format, args...)})
}

// handleSubmit admits a campaign: parse, validate, quota-check,
// persist, queue. 202 with the queued JobStatus on success.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		fail(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}
	req, err := api.ParseSubmission(body)
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.buildJob(req, owner(r))
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}

	st, code, err := s.admit(j)
	if err != nil {
		fail(w, code, "%v", err)
		return
	}
	s.cond.Signal()

	s.log(r.Context()).Info("job queued",
		"job", j.id, "name", j.name, "trials", st.Trials, "client", j.owner)
	j.hub.Publish(api.Event{Type: api.EventState, State: api.StateQueued})
	writeJSON(w, http.StatusAccepted, st)
}

// admit checks drain state and quotas under s.mu, makes the job's
// submission record durable with the lock released, then queues the
// job. The fsync thus never holds up status, list or health requests,
// and s.admission, which serialises admissions, keeps the quota check
// true until the insert: outside a drain only an admission raises the
// counts it reads. On refusal it returns the HTTP code and reason.
func (s *Server) admit(j *job) (*api.JobStatus, int, error) {
	s.admission.Lock()
	defer s.admission.Unlock()
	s.mu.Lock()
	reject := func(reason string, code int, format string, args ...any) (*api.JobStatus, int, error) {
		s.mu.Unlock()
		s.m.rejections.With(reason).Inc()
		return nil, code, fmt.Errorf(format, args...)
	}
	if s.draining {
		return reject("draining", http.StatusServiceUnavailable, "server is draining")
	}
	queued, ownerJobs, ownerTrials := 0, 0, 0
	for _, other := range s.jobs {
		if other.state == api.StateQueued {
			queued++
		}
		if other.owner == j.owner && !other.state.Terminal() {
			ownerJobs++
			ownerTrials += len(other.req.Trials) - other.done
		}
	}
	if queued >= s.cfg.MaxQueue {
		return reject("queue_full", http.StatusServiceUnavailable, "queue full (%d jobs queued)", queued)
	}
	if ownerJobs >= s.cfg.MaxQueuedPerClient {
		return reject("client_jobs", http.StatusTooManyRequests,
			"client %q has %d active jobs (limit %d)", j.owner, ownerJobs, s.cfg.MaxQueuedPerClient)
	}
	if ownerTrials+len(j.req.Trials) > s.cfg.MaxTrialsPerClient {
		return reject("client_trials", http.StatusTooManyRequests,
			"client %q would have %d trials in flight (limit %d)",
			j.owner, ownerTrials+len(j.req.Trials), s.cfg.MaxTrialsPerClient)
	}
	j.id = newJobID()
	for s.jobs[j.id] != nil {
		j.id = newJobID()
	}
	j.submitted = time.Now().UTC()
	st := j.status()
	s.mu.Unlock()

	// A drain that starts now still finds the job durable and queued,
	// so a restarted daemon runs it.
	if err := s.persist(j.id, jobRecord{JobStatus: *st, Request: j.req}); err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("persisting job: %v", err)
	}
	j.hub = sse.NewHub(j.id, s.m.sse)
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.fifo = append(s.fifo, j)
	s.m.submitted.Inc()
	s.m.queueDepth.Inc() // gauge transitions happen under s.mu, like the states they mirror
	s.mu.Unlock()
	return st, 0, nil
}

// lookup resolves {id}; nil means the response was already written.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		fail(w, http.StatusNotFound, "no campaign %q", id)
		return nil
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]*api.JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	st := s.cancelJob(j)
	s.log(r.Context()).Info("job cancel requested", "job", j.id, "state", st.State)
	writeJSON(w, http.StatusOK, st)
}

// handleHealth is liveness plus readiness: queue and slot occupancy,
// drain state, and a data-dir write probe. A draining daemon (no longer
// admitting jobs) and one that cannot persist submissions both answer
// 503, so load balancers rotate clients away before submissions fail.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := api.Health{
		Status:   "ok",
		Jobs:     len(s.jobs),
		Slots:    s.cfg.Concurrency,
		Draining: s.draining,
	}
	for _, j := range s.jobs {
		switch j.state {
		case api.StateQueued:
			h.Queued++
		case api.StateRunning:
			h.Running++
		}
	}
	s.mu.Unlock()
	h.SlotsInUse = h.Running

	code := http.StatusOK
	if s.cfg.DataDir != "" {
		h.DataDir = s.cfg.DataDir
		writable := probeWritable(s.cfg.DataDir)
		h.DataDirWritable = &writable
		if !writable {
			h.Status = "degraded"
			code = http.StatusServiceUnavailable
		}
	}
	if h.Draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// probeWritable checks that the daemon can still create files in dir —
// the thing admission actually requires — by creating and removing a
// scratch file.
func probeWritable(dir string) bool {
	f, err := os.CreateTemp(dir, ".healthz*")
	if err != nil {
		return false
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return filepath.Dir(name) == filepath.Clean(dir)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	info := buildinfo.Get()
	writeJSON(w, http.StatusOK, api.Version{
		Version: info.Version, Revision: info.Revision, Dirty: info.Dirty, GoVersion: info.GoVersion,
	})
}

// handleEvents streams a job's event log as SSE: retained history
// after Last-Event-ID (all of it by default), then live events, until
// the job reaches a terminal state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		fail(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	var after int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			fail(w, http.StatusBadRequest, "bad Last-Event-ID %q", v)
			return
		}
		after = n
	}

	backlog, ch, cancel := j.hub.Subscribe(after)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	write := func(ev api.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
		fl.Flush()
		return ev.Type != api.EventDone
	}
	for _, ev := range backlog {
		if !write(ev) {
			return
		}
	}
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // hub closed (terminal) or this subscriber was evicted
			}
			if !write(ev) {
				return
			}
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
