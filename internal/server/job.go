package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/ftsim"
	"repro/ftsim/api"
	"repro/internal/sse"
)

// job is one submitted campaign moving through the lifecycle state
// machine (api.JobState): its wire status plus its resolved request.
// The embedded status is guarded by the server's mutex; Started and
// Finished are replaced, never written through, so a copy of the
// status is a snapshot. The hub has its own lock and may be used
// without s.mu.
type job struct {
	api.JobStatus
	req        *api.CampaignRequest
	hub        *sse.Hub
	cancelRun  context.CancelFunc // set while running
	userCancel bool               // DELETE requested, vs. server drain
}

// status snapshots the job's wire status. Caller holds s.mu.
func (j *job) status() *api.JobStatus {
	st := j.JobStatus
	return &st
}

// buildJob validates and resolves a submission into a queued job.
// Resolution is written back into the request — default benchmark,
// default instruction budget, normalized configs, generated labels and
// name — so the persisted submission record replays to the identical
// campaign (same checkpoint-journal hash) on a daemon restart, even if
// the server's defaults change in between.
//
// No program is built here, whatever the backend: benchmark names are
// looked up and assembly is assembled only to refuse bad source with a
// 400. The local backend builds the programs when the job runs.
func (s *Server) buildJob(req *api.CampaignRequest, owner string) (*job, error) {
	if len(req.Trials) == 0 {
		return nil, errors.New("campaign has no trials")
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	for i := range req.Trials {
		ts := &req.Trials[i]
		name := ts.Benchmark // the trial's part of generated labels and the job name
		if ts.Asm != "" {
			name = cmp.Or(ts.Label, fmt.Sprintf("asm-%d", i)) + ".s"
		} else if name == "" {
			ts.Benchmark = s.cfg.DefaultBenchmark
			name = ts.Benchmark
		}
		if ts.Label == "" {
			// Shard requests label by parent-grid index, so a sharded
			// run's streams and manifests name trials exactly as the
			// unsharded run would.
			ts.Label = fmt.Sprintf("%d/%s", seedOffset(req)+i, name)
		}
		// Only assembly and unknown names are worth trying here: a
		// Table 2 program is built when the job runs.
		if _, known := s.programs[ts.Benchmark]; ts.Asm != "" || !known {
			if _, err := s.program(ts); err != nil {
				return nil, fmt.Errorf("trial %d: %w", i, err)
			}
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
		if req.Name == "" {
			req.Name = name
		}
	}
	return &job{
		JobStatus: api.JobStatus{Name: req.Name, State: api.StateQueued, Owner: owner, Trials: len(req.Trials)},
		req:       req,
	}, nil
}

// program returns trial ts's program: a Table 2 benchmark from the
// daemon's shared table, or the trial's assembly, assembled under its
// resolved label plus ".s" — the one name it has at admission, at run
// and after a restart, so a resumed journal's campaign hash matches.
func (s *Server) program(ts *api.TrialSpec) (*ftsim.Program, error) {
	if ts.Asm != "" {
		return ftsim.Assemble(ts.Label+".s", ts.Asm)
	}
	build, known := s.programs[ts.Benchmark]
	if !known {
		return ftsim.Benchmark(ts.Benchmark) // fails with ErrUnknownBenchmark, building nothing
	}
	return build()
}

// seedOffset is the parent-grid index of req's first trial: nonzero
// exactly when req is a shard of a larger campaign.
func seedOffset(req *api.CampaignRequest) int {
	if req.Shard == nil {
		return 0
	}
	return req.Shard.Offset
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
			if j.State == api.StateQueued {
				return j
			}
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// runJob executes one campaign: queued → running, then the backend,
// then the terminal transition. A drain cancellation re-queues the job
// instead of finishing it, so a restarted daemon resumes it from the
// journal.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.runCtx)
	defer cancel()

	s.mu.Lock()
	if j.State != api.StateQueued || s.draining {
		s.mu.Unlock()
		return
	}
	started := time.Now().UTC()
	j.State, j.Started, j.cancelRun = api.StateRunning, &started, cancel
	s.m.queueDepth.Dec()
	s.m.running.Inc()
	s.m.queueWait.Observe(started.Sub(j.Submitted).Seconds())
	s.mu.Unlock()
	jlog := s.logger.With("job", j.ID)
	ctx = withLogger(ctx, jlog)
	jlog.Info("job running", "name", j.Name, "trials", j.Trials,
		"queue_wait", started.Sub(j.Submitted))
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
		j.Resumed, j.Failed = res.Resumed, res.Failed
	}
	switch {
	case err == nil:
		j.State, j.Done, j.Stats = api.StateDone, res.Done, res.Stats
	case j.userCancel:
		j.State = api.StateCancelled
	case s.runCtx.Err() != nil:
		// Server drain, not a client cancel: put the job back in queued
		// state and stop. Its journal was flushed on the way out
		// (fsync-on-drain), so a restarted daemon re-queues it and
		// resumes the completed trials instead of re-running them.
		j.State, j.Started = api.StateQueued, nil
		j.Done, j.Failed, j.Resumed, j.ShardsDone = 0, 0, 0, 0
		s.m.queueDepth.Inc()
		s.mu.Unlock()
		jlog.Info("job interrupted by drain; will resume on restart")
		return
	default:
		j.State, j.Error = api.StateFailed, err.Error()
	}
	final := s.finish(j)
	jlog.Info("job finished", "name", j.Name, "state", final.State,
		"done", final.Done, "trials", final.Trials,
		"failed", final.Failed, "resumed", final.Resumed)
}

// finish completes j's terminal transition, whose state the caller has
// set under s.mu: it stamps Finished and releases s.mu, then appends
// the terminal record to the journal and closes the event stream with
// the final status, which it returns.
func (s *Server) finish(j *job) *api.JobStatus {
	now := time.Now().UTC()
	j.Finished = &now
	s.m.finished.With(string(j.State)).Inc()
	final := j.status()
	s.mu.Unlock()
	if err := s.persist(j.ID, jobRecord{JobStatus: *final}); err != nil {
		s.logger.Error("persisting terminal status failed", "job", j.ID, "err", err)
	}
	j.hub.Publish(api.Event{Type: api.EventDone, State: final.State, Status: final})
	j.hub.Close()
	return final
}

// cancelJob handles DELETE: a queued job finishes immediately as
// cancelled; a running one has its campaign context cancelled and
// finishes when RunCampaign drains (journal flushed). Terminal jobs are
// left as they are (idempotent cancel).
func (s *Server) cancelJob(j *job) *api.JobStatus {
	s.mu.Lock()
	switch j.State {
	case api.StateQueued:
		j.State, j.userCancel = api.StateCancelled, true
		s.m.queueDepth.Dec()
		return s.finish(j)
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
