package server

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/ftsim"
	"repro/ftsim/api"
)

// Backend executes admitted campaigns. The server owns everything
// around the execution — admission, queueing, quotas, persistence, the
// SSE stream, the lifecycle state machine — and calls Run once per job
// when a scheduler slot frees. The default backend (nil Config.Backend)
// runs the campaign in-process on the ftsim engine; a coordinator
// daemon installs internal/coord's backend, which farms the same job
// out to worker daemons, shard by shard. Either way the HTTP surface
// and the wire format are identical.
type Backend interface {
	// Run executes the job's grid to completion and returns its merged
	// result. ctx is cancelled on client cancel and server drain; Run
	// must return promptly then. A nil error means every trial
	// completed and res carries the full statistics.
	Run(ctx context.Context, j *Job) (res *Result, err error)
}

// Job is a backend's view of one admitted campaign: the resolved
// request and write paths back into the server's job table and event
// stream. All callbacks are safe for concurrent use.
type Job struct {
	// ID is the job identifier (also the SSE stream name).
	ID string
	// Request is the resolved submission: server defaults applied,
	// configs normalized, labels generated. The local backend builds
	// its programs when it runs; a distributed backend forwards slices
	// of it to workers verbatim.
	Request *api.CampaignRequest
	// SeedOffset is the parent-grid index of Request.Trials[0]: nonzero
	// exactly when the request is a shard of a larger campaign, in
	// which case per-trial seeds must derive from SeedOffset+i, not i.
	SeedOffset int

	publish  func(api.Event)
	progress func(done, failed int)
	shards   func(total, done int)
}

// Publish emits an event on the job's SSE stream (sequence number and
// job ID are stamped by the hub).
func (j *Job) Publish(ev api.Event) { j.publish(ev) }

// SetProgress updates the job's live trial counters, visible in
// GET /v1/campaigns/{id} while the job runs.
func (j *Job) SetProgress(done, failed int) { j.progress(done, failed) }

// SetShards updates the job's shard counters (distributed backends
// only; the local engine has no shards to report).
func (j *Job) SetShards(total, done int) { j.shards(total, done) }

// Result is a completed backend run.
type Result struct {
	// Stats is the compact JSON encoding of the per-trial statistics in
	// grid order ([]*ftsim.Stats) — the PR 7 stats codec, so sharded
	// and local results are interchangeable byte-for-byte. Set only on
	// success.
	Stats []byte
	// Done is the completed-trial count. The server trusts it only on
	// success; on error the live SetProgress count stands.
	Done int
	// Failed is the error-manifest length; Resumed counts trials
	// restored from a checkpoint journal rather than re-run. Both are
	// honoured even when Run also returns an error.
	Failed  int
	Resumed int
}

// localBackend is the default executor: the ftsim campaign engine,
// in-process, with checkpointing and live streaming wired into the
// server's instruments.
type localBackend struct{ s *Server }

func (b localBackend) Run(ctx context.Context, j *Job) (*Result, error) {
	trials := make([]ftsim.Trial, len(j.Request.Trials))
	for i := range j.Request.Trials {
		ts := &j.Request.Trials[i]
		prog, err := b.s.program(ts)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		trials[i] = ftsim.Trial{Label: ts.Label, Config: ts.Config, Program: prog}
	}
	workers := j.Request.Workers
	if workers == 0 {
		workers = b.s.cfg.WorkersPerJob
	}
	failed := 0 // progress callbacks are serialised; no lock needed
	opts := []ftsim.CampaignOption{
		ftsim.WithWorkers(workers),
		ftsim.WithCampaignSeed(j.Request.Seed),
		ftsim.WithMetricsSink(b.s.m.campaign),
		ftsim.WithCampaignObserveEvery(b.s.cfg.ObserveEvery),
		ftsim.WithCampaignObserver(func(trial int, label string, iv ftsim.Interval) {
			j.Publish(api.Event{Type: api.EventInterval, Trial: trial, Label: label, Interval: &iv})
		}),
		ftsim.WithCampaignProgress(func(done, total int, r ftsim.TrialResult) {
			if r.Failed() {
				failed++
			}
			j.SetProgress(done, failed)
			ev := api.Event{
				Type: api.EventTrial, Trial: r.Index, Label: r.Label,
				Done: done, Total: total, Seconds: r.Elapsed.Seconds(),
			}
			if r.Err != nil {
				ev.Err = r.Err.Error()
			}
			j.Publish(ev)
		}),
	}
	if off := j.SeedOffset; off != 0 {
		opts = append(opts, ftsim.WithTrialSeedIndex(func(i int) int { return off + i }))
	}
	if b.s.cfg.TrialTimeout > 0 {
		opts = append(opts, ftsim.WithTrialTimeout(b.s.cfg.TrialTimeout))
	}
	if b.s.cfg.DataDir != "" {
		opts = append(opts,
			ftsim.WithCheckpoint(b.s.journalPath(j.ID)),
			ftsim.WithCheckpointFlushEvery(b.s.cfg.FlushEvery))
	}

	rep, err := ftsim.RunCampaign(ctx, j.ID, trials, opts...)
	res := &Result{}
	if rep != nil {
		res.Resumed = rep.Resumed
		res.Failed = len(rep.Failures())
	}
	if err != nil {
		return res, err
	}
	// Every trial completed (a fully resumed campaign never calls the
	// progress callback, so count from the report, not from it).
	res.Done = len(rep.Results)
	stats, err := ftsim.CollectStats(rep)
	if err != nil {
		return res, err
	}
	data, err := json.Marshal(stats)
	if err != nil {
		return res, fmt.Errorf("encoding stats: %v", err)
	}
	res.Stats = data
	return res, nil
}

// backendView wraps j as the backend-facing Job, routing counter
// updates through the server's mutex.
func (s *Server) backendView(j *job) *Job {
	return &Job{
		ID:         j.ID,
		Request:    j.req,
		SeedOffset: seedOffset(j.req),
		publish:    j.hub.Publish,
		progress: func(done, failed int) {
			s.mu.Lock()
			j.Done, j.Failed = done, failed
			s.mu.Unlock()
		},
		shards: func(total, done int) {
			s.mu.Lock()
			j.Shards, j.ShardsDone = total, done
			s.mu.Unlock()
		},
	}
}
