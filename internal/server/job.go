package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/ftsim"
	"repro/ftsim/api"
	"repro/internal/sse"
)

// job is one submitted campaign moving through the lifecycle state
// machine (api.JobState). All mutable fields are guarded by the
// server's mutex; the hub has its own lock and may be used without it.
type job struct {
	id         string
	owner      string
	name       string
	req        *api.CampaignRequest
	trials     []ftsim.Trial // compiled req.Trials; nil under a distributed backend and once terminal
	seedOffset int           // parent-grid index of trials[0] (shard requests)
	submitted  time.Time
	hub        *sse.Hub

	state      api.JobState
	started    time.Time
	finished   time.Time
	done       int // completed trials, including resumed ones
	failed     int
	resumed    int
	shards     int // shard counters, maintained by distributed backends
	shardsDone int
	errMsg     string
	statsJSON  []byte
	cancelRun  context.CancelFunc // set while running
	userCancel bool               // DELETE requested, vs. server drain
}

// status snapshots the job as a wire JobStatus. Caller holds s.mu.
func (j *job) status() *api.JobStatus {
	st := &api.JobStatus{
		ID:         j.id,
		Name:       j.name,
		State:      j.state,
		Owner:      j.owner,
		Trials:     len(j.req.Trials),
		Done:       j.done,
		Failed:     j.failed,
		Resumed:    j.resumed,
		Shards:     j.shards,
		ShardsDone: j.shardsDone,
		Submitted:  j.submitted,
		Error:      j.errMsg,
		Stats:      j.statsJSON,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// buildJob validates and resolves a submission into a runnable job.
// Resolution is written back into the request — default benchmark,
// default instruction budget, normalized configs, generated labels and
// name — so the persisted submission record replays to the identical
// campaign (same checkpoint-journal hash) on a daemon restart, even if
// the server's defaults change in between.
//
// Programs are compiled only for the local backend. A distributed
// backend forwards the request and its workers build: here benchmark
// names are only looked up and assembly is assembled only to refuse
// bad source with a 400.
func (s *Server) buildJob(req *api.CampaignRequest, owner string) (*job, error) {
	if len(req.Trials) == 0 {
		return nil, errors.New("campaign has no trials")
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	offset := 0
	if req.Shard != nil {
		offset = req.Shard.Offset
	}
	local := s.cfg.Backend == nil
	var trials []ftsim.Trial
	if local {
		trials = make([]ftsim.Trial, len(req.Trials))
	}
	for i := range req.Trials {
		ts := &req.Trials[i]
		var prog *ftsim.Program
		var name string
		var err error
		if ts.Asm != "" {
			name = ts.Label
			if name == "" {
				name = fmt.Sprintf("asm-%d", i)
			}
			name += ".s"
			prog, err = ftsim.Assemble(name, ts.Asm)
		} else {
			if ts.Benchmark == "" {
				ts.Benchmark = s.cfg.DefaultBenchmark
			}
			name = ts.Benchmark
			build, known := s.programs[name]
			switch {
			case !known:
				_, err = ftsim.Benchmark(name) // fails with ErrUnknownBenchmark, building nothing
			case local:
				prog, err = build()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		cfg := ts.Config.Normalized()
		if cfg.MaxInsts == 0 && cfg.MaxCycles == 0 {
			// An unlimited run limit would let one benchmark trial hold a
			// worker for 2^32 iterations; submitted configs without a
			// budget take the server's.
			cfg.MaxInsts = s.cfg.DefaultMaxInsts
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		ts.Config = cfg
		if ts.Label == "" {
			// Shard requests label by parent-grid index, so a sharded
			// run's streams and manifests name trials exactly as the
			// unsharded run would.
			ts.Label = fmt.Sprintf("%d/%s", offset+i, name)
		}
		if local {
			trials[i] = ftsim.Trial{Label: ts.Label, Config: cfg, Program: prog}
		}
		if req.Name == "" {
			req.Name = name
		}
	}
	return &job{
		owner:      owner,
		name:       req.Name,
		req:        req,
		trials:     trials,
		seedOffset: offset,
		state:      api.StateQueued,
	}, nil
}

// scheduler is one job-execution slot: it pulls queued jobs in
// submission order until the server drains.
func (s *Server) scheduler() {
	defer s.wg.Done()
	for {
		j := s.nextQueued()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// nextQueued blocks until a queued job is available (skipping jobs
// cancelled while queued) or the server is draining, in which case it
// returns nil.
func (s *Server) nextQueued() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.fifo) > 0 {
			j := s.fifo[0]
			s.fifo = s.fifo[1:]
			if j.state == api.StateQueued {
				return j
			}
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// runJob executes one campaign: queued → running, then RunCampaign
// with checkpointing, live progress and interval streaming, then the
// terminal transition. A drain cancellation re-queues the job instead
// of finishing it, so a restarted daemon resumes it from the journal.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.runCtx)
	defer cancel()

	s.mu.Lock()
	if j.state != api.StateQueued || s.draining {
		s.mu.Unlock()
		return
	}
	j.state = api.StateRunning
	j.started = time.Now().UTC()
	j.cancelRun = cancel
	s.m.queueDepth.Dec()
	s.m.running.Inc()
	s.m.queueWait.Observe(j.started.Sub(j.submitted).Seconds())
	s.mu.Unlock()
	jlog := s.logger.With("job", j.id)
	ctx = withLogger(ctx, jlog)
	jlog.Info("job running", "name", j.name, "trials", len(j.req.Trials),
		"queue_wait", j.started.Sub(j.submitted))
	j.hub.Publish(api.Event{Type: api.EventState, State: api.StateRunning})

	backend := s.cfg.Backend
	if backend == nil {
		backend = localBackend{s}
	}
	res, err := backend.Run(ctx, s.backendView(j))
	if err == nil && res == nil {
		err = errors.New("backend returned no result")
	}

	s.mu.Lock()
	j.cancelRun = nil
	s.m.running.Dec()
	if res != nil {
		j.resumed = res.Resumed
		j.failed = res.Failed
	}
	switch {
	case err == nil:
		j.done = res.Done
		j.statsJSON = res.Stats
		j.state = api.StateDone
	case j.userCancel:
		j.state = api.StateCancelled
	case s.runCtx.Err() != nil:
		// Server drain, not a client cancel: put the job back in queued
		// state and stop. Its journal was flushed on the way out
		// (fsync-on-drain), so a restarted daemon re-queues it and
		// resumes the completed trials instead of re-running them.
		j.state = api.StateQueued
		j.started = time.Time{}
		j.done, j.failed, j.resumed, j.shardsDone = 0, 0, 0, 0
		s.m.queueDepth.Inc()
		s.mu.Unlock()
		jlog.Info("job interrupted by drain; will resume on restart")
		return
	default:
		j.state = api.StateFailed
		j.errMsg = err.Error()
	}
	j.finished = time.Now().UTC()
	j.trials = nil // terminal: the compiled grid is never run again
	s.m.finished.With(string(j.state)).Inc()
	final := j.status()
	s.mu.Unlock()

	if perr := s.persist(j.id, jobRecord{JobStatus: *final}); perr != nil {
		jlog.Error("persisting completion failed", "err", perr)
	}
	jlog.Info("job finished", "name", j.name, "state", final.State,
		"done", final.Done, "trials", final.Trials,
		"failed", final.Failed, "resumed", final.Resumed)
	j.hub.Publish(api.Event{Type: api.EventDone, State: final.State, Status: final})
	j.hub.Close()
}

// cancelJob handles DELETE: a queued job finishes immediately as
// cancelled; a running one has its campaign context cancelled and
// finishes when RunCampaign drains (journal flushed). Terminal jobs are
// left as they are (idempotent cancel).
func (s *Server) cancelJob(j *job) *api.JobStatus {
	s.mu.Lock()
	switch j.state {
	case api.StateQueued:
		j.state = api.StateCancelled
		j.userCancel = true
		j.finished = time.Now().UTC()
		j.trials = nil
		s.m.queueDepth.Dec()
		s.m.finished.With(string(j.state)).Inc()
		final := j.status()
		s.mu.Unlock()
		if perr := s.persist(j.id, jobRecord{JobStatus: *final}); perr != nil {
			s.logger.Error("persisting cancellation failed", "job", j.id, "err", perr)
		}
		j.hub.Publish(api.Event{Type: api.EventDone, State: final.State, Status: final})
		j.hub.Close()
		return final
	case api.StateRunning:
		j.userCancel = true
		cancel := j.cancelRun
		st := j.status()
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return st
	default:
		st := j.status()
		s.mu.Unlock()
		return st
	}
}
