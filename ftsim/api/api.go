// Package api defines the wire format of the ftsimd campaign service:
// the JSON request and status envelopes of the /v1/campaigns endpoints
// and the event records of its SSE streams. Both the server
// (internal/server) and the client (ftsim/client, cmd/ftsimc) speak
// these types, so the one definition is the protocol.
//
// Machine descriptions on the wire are ftsim.Config verbatim — the
// golden files under ftsim/testdata are valid submission payloads: a
// body that is a bare machine config is accepted as a one-trial
// campaign (ParseSubmission).
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/ftsim"
)

// TrialSpec is one point of a submitted campaign grid: a machine
// description plus the workload it simulates.
type TrialSpec struct {
	// Label names the trial in status and event reports; empty labels
	// default to "<index>/<workload>".
	Label string `json:"label,omitempty"`
	// Benchmark names a built-in Table 2 workload (ftsim.Benchmarks).
	// Empty selects the server's default benchmark — unless Asm is set.
	Benchmark string `json:"benchmark,omitempty"`
	// Asm, when non-empty, is SRISC assembly source assembled as the
	// trial's workload instead of a built-in benchmark.
	Asm string `json:"asm,omitempty"`
	// Config is the machine description, in the ftsim.Config wire
	// format. Run limits of zero take the server's default instruction
	// budget, so golden configs terminate.
	Config ftsim.Config `json:"config"`
}

// CampaignRequest is the POST /v1/campaigns submission body.
type CampaignRequest struct {
	// Name labels the campaign in listings; empty defaults to the
	// first trial's workload name.
	Name string `json:"name,omitempty"`
	// Seed is the campaign master seed every per-trial fault seed
	// derives from; 0 means 1.
	Seed int64 `json:"seed,omitempty"`
	// Workers overrides the server's per-job worker-pool size for this
	// campaign (0 keeps the server default). Results are identical for
	// any value.
	Workers int `json:"workers,omitempty"`
	// Shards asks a coordinator daemon to split the grid into this many
	// trial-range shards across its worker daemons (0 picks one shard
	// per configured worker). Results are identical for any value — a
	// shard's per-trial seeds derive from parent-grid indices, never
	// from the partition. Worker daemons ignore the field.
	Shards int `json:"shards,omitempty"`
	// Shard marks this request as one shard of a larger campaign grid:
	// trial i of this request is trial Shard.Offset+i of the parent
	// grid, and its fault seed derives from that parent index, so a
	// sharded run's statistics are byte-identical to an unsharded
	// run's. Coordinators set it on the sub-campaigns they dispatch;
	// plain clients normally leave it nil.
	Shard *ShardRange `json:"shard,omitempty"`
	// Trials is the grid, run in order-independent parallel with
	// deterministic per-trial seeds.
	Trials []TrialSpec `json:"trials"`
}

// ShardRange locates a shard's trials inside its parent campaign grid.
type ShardRange struct {
	// Offset is the parent-grid index of this request's first trial.
	Offset int `json:"offset"`
	// Total is the parent grid's trial count; the shard's trials must
	// fit inside [Offset, Total).
	Total int `json:"total"`
}

// validateShard checks a request's shard range against its own trial
// count: the range [Offset, Offset+len(Trials)) must sit inside
// [0, Total). Comparisons are arranged to be overflow-proof — a Total
// of math.MaxInt64 with a near-max Offset must be rejected, not wrap.
func (r *CampaignRequest) validateShard() error {
	s := r.Shard
	if s == nil {
		return nil
	}
	switch {
	case s.Offset < 0:
		return fmt.Errorf("shard: negative offset %d", s.Offset)
	case s.Total < 1:
		return fmt.Errorf("shard: total %d is not a positive trial count", s.Total)
	case s.Offset >= s.Total:
		return fmt.Errorf("shard: offset %d is outside the parent grid of %d trials", s.Offset, s.Total)
	case len(r.Trials) > s.Total-s.Offset:
		return fmt.Errorf("shard: %d trials at offset %d overflow the parent grid of %d trials",
			len(r.Trials), s.Offset, s.Total)
	}
	return nil
}

// MaxTrialsPerRequest bounds one submission's grid. It exists to make
// trial-count arithmetic overflow-proof everywhere downstream (quota
// sums, shard partitioning) and is far above any campaign the service
// is sized for; per-client quotas bite long before it does.
const MaxTrialsPerRequest = 10_000_000

// ParseSubmission decodes a POST /v1/campaigns body. Two shapes are
// accepted: a full CampaignRequest (the top level has a "trials" key),
// and a bare ftsim.Config — e.g. a ftsim/testdata golden file — which
// becomes a one-trial campaign on the server's default workload.
// Unknown fields are rejected in both shapes: a typo in a submitted
// machine description must not silently fall back to a default. The
// request-shape invariants every daemon mode relies on are enforced
// here: at least one trial, a bounded trial count, a non-negative
// shard-count hint, and a shard range that stays inside its parent
// grid. Every trial's config is normalized and validated, as
// ftsim.ParseConfig does a bare one, so an accepted request marshals
// and parses back to itself.
func ParseSubmission(data []byte) (*CampaignRequest, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("body is not a JSON object: %w", err)
	}
	if _, ok := probe["trials"]; !ok {
		cfg, err := ftsim.ParseConfig(data)
		if err != nil {
			return nil, err
		}
		return &CampaignRequest{Trials: []TrialSpec{{Config: cfg}}}, nil
	}
	var req CampaignRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if len(req.Trials) == 0 {
		return nil, errors.New("campaign has no trials")
	}
	if len(req.Trials) > MaxTrialsPerRequest {
		return nil, fmt.Errorf("campaign has %d trials (limit %d per request)",
			len(req.Trials), MaxTrialsPerRequest)
	}
	if req.Shards < 0 {
		return nil, fmt.Errorf("negative shard count %d", req.Shards)
	}
	if err := req.validateShard(); err != nil {
		return nil, err
	}
	for i := range req.Trials {
		cfg := req.Trials[i].Config.Normalized()
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		req.Trials[i].Config = cfg
	}
	return &req, nil
}

// JobState is one station of the campaign lifecycle state machine:
//
//	queued → running → done
//	   │        ├────→ failed
//	   └────────┴────→ cancelled
//
// A daemon restart re-queues interrupted running jobs; their completed
// trials resume from the checkpoint journal instead of re-running.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the GET /v1/campaigns/{id} response: the lifecycle
// position and progress of one submitted campaign.
type JobStatus struct {
	ID    string   `json:"id"`
	Name  string   `json:"name"`
	State JobState `json:"state"`
	// Owner is the client token the job was submitted under.
	Owner string `json:"owner,omitempty"`

	// Trials is the grid size; Done counts completed trials (including
	// resumed ones), Failed the entries of the error manifest, Resumed
	// the trials restored from the checkpoint journal after a restart.
	Trials  int `json:"trials"`
	Done    int `json:"done"`
	Failed  int `json:"failed,omitempty"`
	Resumed int `json:"resumed,omitempty"`

	// Shard progress, reported by coordinator daemons only: the number
	// of trial-range shards the grid was split into and how many have
	// completed on their workers.
	Shards     int `json:"shards,omitempty"`
	ShardsDone int `json:"shards_done,omitempty"`

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`

	// Error is the campaign failure summary of failed jobs.
	Error string `json:"error,omitempty"`

	// Stats, present once the job is done, is the per-trial statistics
	// in grid order — []*ftsim.Stats in the same JSON stats codec the
	// checkpoint journal uses, so a resumed job's aggregate is
	// byte-identical to an uninterrupted run's.
	Stats json.RawMessage `json:"stats,omitempty"`
}

// EventType discriminates SSE stream events.
type EventType string

const (
	// EventState reports a lifecycle transition.
	EventState EventType = "state"
	// EventInterval is a per-interval Observer sample of one running
	// trial.
	EventInterval EventType = "interval"
	// EventTrial reports one trial's completion.
	EventTrial EventType = "trial"
	// EventDone closes the stream: the job reached a terminal state.
	// Its Status carries the final JobStatus, including Stats.
	EventDone EventType = "done"
)

// Event is one record of the GET /v1/campaigns/{id}/events SSE stream.
// Seq numbers events per job from 1; reconnecting with Last-Event-ID
// replays everything after that sequence number.
type Event struct {
	Type EventType `json:"type"`
	Seq  int64     `json:"seq"`
	Job  string    `json:"job"`

	// State accompanies state transitions (EventState, EventDone).
	State JobState `json:"state,omitempty"`

	// Trial fields (EventInterval, EventTrial).
	Trial int    `json:"trial,omitempty"`
	Label string `json:"label,omitempty"`

	// Interval is the Observer sample of EventInterval events.
	Interval *ftsim.Interval `json:"interval,omitempty"`

	// Trial-completion fields (EventTrial): progress counts, the
	// trial's wall time, and its error, if it failed.
	Done    int     `json:"done,omitempty"`
	Total   int     `json:"total,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
	Err     string  `json:"err,omitempty"`

	// Status is the final JobStatus of EventDone events.
	Status *JobStatus `json:"status,omitempty"`
}

// Error is the JSON error envelope every non-2xx response carries.
type Error struct {
	// StatusCode is the HTTP status of the response (not serialized;
	// the transport carries it).
	StatusCode int `json:"-"`
	// Message says what was wrong with the request.
	Message string `json:"error"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("ftsimd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// Health is the GET /healthz response body: liveness (the daemon
// answered) plus readiness. Status is "ok", "degraded" (data dir not
// writable) or "draining"; the latter two arrive with HTTP 503 so load
// balancers rotate clients away before submissions start failing.
type Health struct {
	Status  string `json:"status"`
	Jobs    int    `json:"jobs"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`

	// Slots is the configured job concurrency; SlotsInUse the slots
	// currently occupied by running jobs.
	Slots      int `json:"slots,omitempty"`
	SlotsInUse int `json:"slots_in_use"`
	// Draining reports a shutdown in progress: admission is closed,
	// running jobs are flushing their journals.
	Draining bool `json:"draining,omitempty"`
	// DataDir and DataDirWritable report the persistence root and
	// whether the daemon can still create files there (nil when the
	// daemon is ephemeral).
	DataDir         string `json:"data_dir,omitempty"`
	DataDirWritable *bool  `json:"data_dir_writable,omitempty"`
}

// Version is the GET /version response body.
type Version struct {
	Version   string `json:"version"`
	Revision  string `json:"revision,omitempty"`
	Dirty     bool   `json:"dirty,omitempty"`
	GoVersion string `json:"go"`
}
