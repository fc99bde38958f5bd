package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/ftsim/api"
	"repro/internal/campaign"
	"repro/internal/sse"
)

// On-disk layout under DataDir: one file per job, <id>.ckpt, the
// campaign checkpoint journal (internal/campaign format). The daemon
// keeps its own records in the journal's notes, which the campaign
// runner skips:
//
//	note 1         the job as submitted, with its resolved request;
//	               appended and synced before the submit is answered,
//	               so its presence is what makes a job exist across
//	               restarts.
//	header, trials the campaign journal, appended while the job runs.
//	note 2         the terminal status (state, error, aggregate stats),
//	               appended once when the job finishes.
//
// Restart recovery reads the notes of every journal: a job with a
// terminal note loads as history; one without is re-queued, and its
// journal resumes the completed trials instead of re-running them.

// jobRecord is the JSON of a note: the job's status, plus the resolved
// request in note 1. Its fields are also those of the <id>.job.json
// and <id>.done.json files of older daemons, which foldLegacy moves
// into notes.
type jobRecord struct {
	api.JobStatus
	Request *api.CampaignRequest `json:"request,omitempty"`
}

func (s *Server) journalPath(id string) string {
	return filepath.Join(s.cfg.DataDir, id+".ckpt")
}

// persist appends rec as a note to job id's journal. Without a DataDir
// the daemon is ephemeral and persistence is off.
func (s *Server) persist(id string, rec jobRecord) error {
	if s.cfg.DataDir == "" {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return campaign.AppendNote(s.journalPath(id), data)
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
	if err := s.foldLegacy(); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return err
	}
	var recs []*jobRecord
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		rec, err := readJob(filepath.Join(s.cfg.DataDir, e.Name()))
		if err != nil {
			return err
		}
		if rec == nil {
			// No job record: the submit died before answering.
			s.logger.Warn("journal holds no job record", "file", e.Name())
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, k int) bool {
		if !recs[i].Submitted.Equal(recs[k].Submitted) {
			return recs[i].Submitted.Before(recs[k].Submitted)
		}
		return recs[i].ID < recs[k].ID
	})

	requeued := 0
	for _, rec := range recs {
		var j *job
		var err error
		if rec.State.Terminal() {
			// History only. Note 1 holds the resolved request, so no
			// programs are built for it.
			j = &job{owner: rec.Owner, req: rec.Request, state: rec.State,
				done: rec.Done, failed: rec.Failed, resumed: rec.Resumed,
				errMsg: rec.Error, statsJSON: rec.Stats}
			if rec.Started != nil {
				j.started = *rec.Started
			}
			if rec.Finished != nil {
				j.finished = *rec.Finished
			}
		} else if j, err = s.buildJob(rec.Request, rec.Owner); err != nil {
			// A job that validated at submission should rebuild; if it no
			// longer does (e.g. a hand-edited record), surface it as a
			// failed job rather than refusing to start the daemon.
			s.logger.Warn("job rebuild failed", "job", rec.ID, "err", err)
			j = &job{owner: rec.Owner, req: rec.Request, state: api.StateFailed,
				errMsg: fmt.Sprintf("rebuild after restart: %v", err)}
			j.finished = time.Now().UTC()
		}
		j.id = rec.ID
		j.name = rec.Name
		j.submitted = rec.Submitted
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
	if len(recs) > 0 {
		s.logger.Info("recovered jobs from data dir",
			"dir", s.cfg.DataDir, "jobs", len(recs), "requeued", requeued)
	}
	return nil
}

// readJob decodes a journal's notes into the job's last recorded
// status. Each note sets the fields it carries, in order: note 1 the
// submission and its request, note 2 the terminal status. A journal
// without notes yields nil.
func readJob(path string) (*jobRecord, error) {
	notes, err := campaign.ReadNotes(path)
	if err != nil || len(notes) == 0 {
		return nil, err
	}
	var rec jobRecord
	for i, note := range notes {
		if err := json.Unmarshal(note, &rec); err != nil {
			return nil, fmt.Errorf("%s: note %d: %w", filepath.Base(path), i+1, err)
		}
	}
	if rec.ID == "" || rec.Request == nil {
		return nil, fmt.Errorf("%s: incomplete job record", filepath.Base(path))
	}
	return &rec, nil
}

// foldLegacy moves the per-job side files of older daemons into the
// journal: <id>.job.json and then <id>.done.json are each appended byte
// for byte to <id>.ckpt as a note, then removed. A file already present
// as a note is not appended again, so a fold cut short by a crash
// finishes on the next start.
func (s *Server) foldLegacy() error {
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		id := strings.TrimSuffix(strings.TrimSuffix(e.Name(), ".job.json"), ".done.json")
		if id == e.Name() {
			continue
		}
		// Both files of the job, in order; the second visit finds none.
		base := filepath.Join(s.cfg.DataDir, id)
		notes, err := campaign.ReadNotes(base + ".ckpt")
		if err != nil {
			return err
		}
		for _, path := range []string{base + ".job.json", base + ".done.json"} {
			data, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				return err
			}
			if !slices.ContainsFunc(notes, func(n []byte) bool { return bytes.Equal(n, data) }) {
				if err := campaign.AppendNote(base+".ckpt", data); err != nil {
					return err
				}
			}
			if err := os.Remove(path); err != nil {
				return err
			}
		}
	}
	return nil
}
