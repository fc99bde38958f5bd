package api

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/ftsim"
)

// TestParseSubmissionGoldenConfigs: every ftsim/testdata golden machine
// config is a valid submission body, wrapped as a one-trial campaign.
func TestParseSubmissionGoldenConfigs(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "testdata", "*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no golden configs found (err=%v)", err)
	}
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		req, err := ParseSubmission(data)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		if len(req.Trials) != 1 {
			t.Errorf("%s: wrapped into %d trials, want 1", filepath.Base(path), len(req.Trials))
			continue
		}
		if err := req.Trials[0].Config.Validate(); err != nil {
			t.Errorf("%s: wrapped config invalid: %v", filepath.Base(path), err)
		}
	}
}

// TestParseSubmissionRequestRoundTrip: a full CampaignRequest survives
// marshal → ParseSubmission.
func TestParseSubmissionRequestRoundTrip(t *testing.T) {
	in := &CampaignRequest{
		Name: "sweep",
		Seed: 7,
		Trials: []TrialSpec{
			{Label: "a", Benchmark: "gcc", Config: ftsim.ModelSS2.Config()},
			{Label: "b", Benchmark: "swim", Config: ftsim.ModelSS3.Config()},
		},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseSubmission(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Seed != in.Seed || len(out.Trials) != 2 ||
		out.Trials[1].Benchmark != "swim" {
		t.Errorf("round trip mangled the request: %+v", out)
	}
}

// TestParseSubmissionRejects: typos and invalid configs fail loudly.
func TestParseSubmissionRejects(t *testing.T) {
	for name, body := range map[string]string{
		"not json":            `[]`,
		"unknown field":       `{"trials": [], "trails": 1}`,
		"config typo":         `{"r": 1, "pipelin": {}}`,
		"invalid bare config": `{"r": -4}`,
	} {
		if _, err := ParseSubmission([]byte(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
	// Bare-config validation errors keep the ftsim taxonomy, and so
	// do enum names outside their sets.
	for _, body := range []string{
		`{"r": -4}`,
		`{"r": 2, "fault": {"rate": 0.001, "targets": ["cosmic"]}}`,
		`{"r": 2, "persistent": {"pool": "gpu", "unit": 0, "bit": 3}}`,
		`{"r": 2, "persistent": {"pool": "none", "unit": 0, "bit": 3}}`,
	} {
		if _, err := ParseSubmission([]byte(body)); !errors.Is(err, ftsim.ErrInvalidConfig) {
			t.Errorf("bare config %s: got %v, want ErrInvalidConfig", body, err)
		}
	}
	// Inside a trial grid the same names fail the whole submission.
	if _, err := ParseSubmission([]byte(`{"trials": [{"config": {"r": 2, "fault": {"rate": 0.001, "targets": ["cosmic"]}}}]}`)); err == nil {
		t.Error("grid with an unknown fault target accepted")
	}
}

// TestParseSubmissionTrialBounds: the grid-size invariants every daemon
// mode relies on — at least one trial, at most MaxTrialsPerRequest.
func TestParseSubmissionTrialBounds(t *testing.T) {
	for name, body := range map[string]string{
		"zero trials":  `{"trials": []}`,
		"null trials":  `{"trials": null}`,
		"named, empty": `{"name": "sweep", "seed": 3, "trials": []}`,
	} {
		if _, err := ParseSubmission([]byte(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}

	// One real trial passes the same gate.
	one, err := json.Marshal(&CampaignRequest{
		Trials: []TrialSpec{{Config: ftsim.ModelSS2.Config()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSubmission(one); err != nil {
		t.Errorf("one-trial campaign rejected: %v", err)
	}
}

// TestParseSubmissionShardRange: shard ranges outside the parent grid —
// including arithmetic chosen to overflow naive offset+count sums — are
// rejected at the door.
func TestParseSubmissionShardRange(t *testing.T) {
	mk := func(trials int, shard *ShardRange, shards int) []byte {
		req := &CampaignRequest{Shard: shard, Shards: shards}
		for i := 0; i < trials; i++ {
			req.Trials = append(req.Trials, TrialSpec{Config: ftsim.ModelSS2.Config()})
		}
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	accepted := map[string][]byte{
		"no shard":           mk(2, nil, 0),
		"shard hint only":    mk(2, nil, 7),
		"first shard":        mk(2, &ShardRange{Offset: 0, Total: 5}, 0),
		"last shard":         mk(2, &ShardRange{Offset: 3, Total: 5}, 0),
		"whole grid as one":  mk(2, &ShardRange{Offset: 0, Total: 2}, 0),
		"single-trial shard": mk(1, &ShardRange{Offset: 4, Total: 5}, 0),
	}
	for name, body := range accepted {
		if _, err := ParseSubmission(body); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}

	rejected := map[string][]byte{
		"negative offset":  mk(1, &ShardRange{Offset: -1, Total: 5}, 0),
		"zero total":       mk(1, &ShardRange{Offset: 0, Total: 0}, 0),
		"negative total":   mk(1, &ShardRange{Offset: 0, Total: -3}, 0),
		"offset past grid": mk(1, &ShardRange{Offset: 5, Total: 5}, 0),
		"range past grid":  mk(2, &ShardRange{Offset: 4, Total: 5}, 0),
		"negative hint":    mk(1, nil, -1),
		"offset+len overflow": mk(2, &ShardRange{
			// Offset+len(Trials) overflows int if summed naively; the
			// validator must reject by comparison, not wrap to a small
			// positive number and accept.
			Offset: math.MaxInt - 1, Total: math.MaxInt,
		}, 0),
	}
	for name, body := range rejected {
		if _, err := ParseSubmission(body); err == nil {
			t.Errorf("%s: accepted out-of-bounds shard range", name)
		}
	}
}

// TestJobStateTerminal pins the lifecycle's terminal states.
func TestJobStateTerminal(t *testing.T) {
	for state, terminal := range map[JobState]bool{
		StateQueued: false, StateRunning: false,
		StateDone: true, StateFailed: true, StateCancelled: true,
	} {
		if state.Terminal() != terminal {
			t.Errorf("%s.Terminal() = %v, want %v", state, !terminal, terminal)
		}
	}
}
