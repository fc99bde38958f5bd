package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/ftsim/api"
	"repro/internal/sse"
)

// On-disk layout under DataDir, one triple per job:
//
//	<id>.job.json  — submission envelope, written before the job is
//	                 queued; its presence is what makes a job exist
//	                 across restarts.
//	<id>.ckpt      — the campaign checkpoint journal (internal/campaign
//	                 format), appended while the job runs.
//	<id>.done.json — terminal record (state, error, aggregate stats),
//	                 written exactly once when the job finishes.
//
// Restart recovery re-lists the directory: a job with a done record
// loads as terminal; one without is re-queued, and its journal resumes
// the completed trials instead of re-running them.

// jobEnvelope is the persisted submission.
type jobEnvelope struct {
	ID        string               `json:"id"`
	Owner     string               `json:"owner,omitempty"`
	Name      string               `json:"name"`
	Submitted time.Time            `json:"submitted"`
	Request   *api.CampaignRequest `json:"request"`
}

// doneRecord is the persisted terminal state.
type doneRecord struct {
	State    api.JobState    `json:"state"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished time.Time       `json:"finished"`
	Done     int             `json:"done"`
	Failed   int             `json:"failed,omitempty"`
	Resumed  int             `json:"resumed,omitempty"`
	Error    string          `json:"error,omitempty"`
	Stats    json.RawMessage `json:"stats,omitempty"`
}

func (s *Server) envelopePath(id string) string {
	return filepath.Join(s.cfg.DataDir, id+".job.json")
}
func (s *Server) journalPath(id string) string {
	return filepath.Join(s.cfg.DataDir, id+".ckpt")
}
func (s *Server) donePath(id string) string {
	return filepath.Join(s.cfg.DataDir, id+".done.json")
}

// writeFileAtomic writes data durably: temp file in the same
// directory, fsync, rename over the target. A crash leaves either the
// old file or the new one, never a torn mix.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// persistEnvelope records a newly admitted job. Without a DataDir the
// daemon is ephemeral and persistence is off.
func (s *Server) persistEnvelope(j *job) error {
	if s.cfg.DataDir == "" {
		return nil
	}
	data, err := json.MarshalIndent(jobEnvelope{
		ID: j.id, Owner: j.owner, Name: j.name, Submitted: j.submitted, Request: j.req,
	}, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(s.envelopePath(j.id), data)
}

// persistDone records a job's terminal state.
func (s *Server) persistDone(j *job, st *api.JobStatus) error {
	if s.cfg.DataDir == "" {
		return nil
	}
	data, err := json.MarshalIndent(doneRecord{
		State:   st.State,
		Started: st.Started, Finished: *st.Finished,
		Done: st.Done, Failed: st.Failed, Resumed: st.Resumed,
		Error: st.Error, Stats: st.Stats,
	}, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(s.donePath(j.id), data)
}

// recover reloads the data directory into the job table: terminal jobs
// become read-only history, interrupted ones re-queue (their checkpoint
// journals resume the completed trials). Called from New, before the
// schedulers start.
func (s *Server) recover() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return err
	}
	var envelopes []jobEnvelope
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".job.json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.cfg.DataDir, name))
		if err != nil {
			return err
		}
		var env jobEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if env.ID == "" || env.Request == nil {
			return fmt.Errorf("%s: incomplete job envelope", name)
		}
		envelopes = append(envelopes, env)
	}
	sort.Slice(envelopes, func(i, k int) bool {
		if !envelopes[i].Submitted.Equal(envelopes[k].Submitted) {
			return envelopes[i].Submitted.Before(envelopes[k].Submitted)
		}
		return envelopes[i].ID < envelopes[k].ID
	})

	requeued := 0
	for i := range envelopes {
		env := &envelopes[i]
		rec, err := s.loadDone(env.ID)
		if err != nil {
			return err
		}
		var j *job
		if rec != nil {
			// Terminal: history only. The envelope holds the resolved
			// request, so no programs are built for it.
			j = &job{owner: env.Owner, req: env.Request, state: rec.State,
				finished: rec.Finished, done: rec.Done, failed: rec.Failed,
				resumed: rec.Resumed, errMsg: rec.Error, statsJSON: rec.Stats}
			if rec.Started != nil {
				j.started = *rec.Started
			}
		} else if j, err = s.buildJob(env.Request, env.Owner); err != nil {
			// A job that validated at submission should rebuild; if it no
			// longer does (e.g. a hand-edited envelope), surface it as a
			// failed job rather than refusing to start the daemon.
			s.logger.Warn("job rebuild failed", "job", env.ID, "err", err)
			j = &job{owner: env.Owner, req: env.Request, state: api.StateFailed,
				errMsg: fmt.Sprintf("rebuild after restart: %v", err)}
			j.finished = time.Now().UTC()
		}
		j.id = env.ID
		j.name = env.Name
		j.submitted = env.Submitted
		j.hub = sse.NewHub(j.id, s.m.sse)

		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		switch {
		case j.state == api.StateQueued:
			s.fifo = append(s.fifo, j)
			s.m.queueDepth.Inc()
			j.hub.Publish(api.Event{Type: api.EventState, State: api.StateQueued})
			requeued++
		default:
			// Terminal (or failed-to-rebuild): the stream replays the
			// final state and closes immediately.
			j.hub.Publish(api.Event{Type: api.EventDone, State: j.state, Status: j.status()})
			j.hub.Close()
		}
	}
	if len(envelopes) > 0 {
		s.logger.Info("recovered jobs from data dir",
			"dir", s.cfg.DataDir, "jobs", len(envelopes), "requeued", requeued)
	}
	return nil
}

// loadDone reads a job's terminal record, if one exists.
func (s *Server) loadDone(id string) (*doneRecord, error) {
	data, err := os.ReadFile(s.donePath(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rec doneRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s.done.json: %w", id, err)
	}
	return &rec, nil
}
