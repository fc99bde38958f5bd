package ftsim_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/ftsim"
	"repro/internal/snap"
)

// checkpointFixture is a complete campaign journal committed to pin the
// on-disk format: resuming it must keep working however the engine
// changes. Regenerate it only after a deliberate format change
// (`go test ./ftsim -run TestCheckpointFixtureResumes -update`).
const checkpointFixture = "testdata/campaign.ckpt"

// fixtureTrials is the fixture's grid: {gcc, fpppp} x {SS-2 rewind,
// SS-3 majority} under faults, so each trial's statistics depend on the
// seed the campaign derives for it.
func fixtureTrials(t *testing.T) []ftsim.Trial {
	t.Helper()
	var trials []ftsim.Trial
	for _, bench := range []string{"gcc", "fpppp"} {
		p := benchProgram(t, bench)
		for _, model := range []ftsim.Model{ftsim.ModelSS2, ftsim.ModelSS3} {
			cfg := model.Config()
			cfg.MaxInsts = 2_000
			cfg.MaxCycles = 1_000_000
			cfg.Fault.Rate = 1e-3
			cfg.Fault.Targets = ftsim.AllFaultTargets()
			trials = append(trials, ftsim.Trial{Label: bench + "/" + string(model), Config: cfg, Program: p})
		}
	}
	return trials
}

// journalValues returns the value bytes of every trial record in a
// journal, by trial index. A journal is a run of [u32 length][snap
// blob] frames: one header (kind 1), then trial records (kind 2:
// index, seed, attempts, elapsed, value).
func journalValues(t *testing.T, data []byte) map[int][]byte {
	t.Helper()
	out := make(map[int][]byte)
	for off := 0; off < len(data); {
		if len(data)-off < 4 {
			t.Fatalf("torn frame length at offset %d", off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > len(data)-off-4 {
			t.Fatalf("frame at offset %d runs past the end", off)
		}
		r, err := snap.NewReader(data[off+4 : off+4+n])
		if err != nil {
			t.Fatalf("frame at offset %d: %v", off, err)
		}
		if r.U8() == 2 {
			idx := int(r.U32())
			r.I64() // seed
			r.U32() // attempts
			r.I64() // elapsed
			out[idx] = r.Bytes()
			if err := r.Done(); err != nil {
				t.Fatalf("trial record at offset %d: %v", off, err)
			}
		}
		off += 4 + n
	}
	return out
}

// TestCheckpointFixtureResumes resumes a copy of the committed journal:
// every trial comes back from disk (none re-runs), the statistics equal
// a fresh run's, re-encoding each resumed Stats reproduces the stored
// value bytes exactly, and the journal file is left untouched.
func TestCheckpointFixtureResumes(t *testing.T) {
	const name, seed = "fixture", 3
	trials := fixtureTrials(t)
	if *update {
		os.Remove(checkpointFixture)
		if _, err := ftsim.RunCampaign(context.Background(), name, trials,
			ftsim.WithWorkers(1), ftsim.WithCampaignSeed(seed), ftsim.WithCheckpoint(checkpointFixture)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(checkpointFixture)
	if err != nil {
		t.Fatalf("%v (run `go test ./ftsim -run TestCheckpointFixtureResumes -update` to create)", err)
	}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := ftsim.RunCampaign(context.Background(), name, trials,
		ftsim.WithCampaignSeed(seed), ftsim.WithCheckpoint(path),
		ftsim.WithCampaignProgress(func(done, total int, r ftsim.TrialResult) {
			t.Errorf("trial %d (%s) re-ran instead of resuming", r.Index, r.Label)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != len(trials) {
		t.Errorf("resumed %d trials, want %d", rep.Resumed, len(trials))
	}
	got, err := ftsim.CollectStats(rep)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := ftsim.RunCampaign(context.Background(), name, trials, ftsim.WithCampaignSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ftsim.CollectStats(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("resumed statistics differ from a fresh run's")
	}
	detected := uint64(0)
	for _, st := range want {
		detected += st.FaultsDetected
	}
	if detected == 0 {
		t.Error("no trial detected a fault; the fixture does not exercise the seed override")
	}

	values := journalValues(t, data)
	if len(values) != len(trials) {
		t.Fatalf("fixture holds %d trial records, want %d", len(values), len(trials))
	}
	for i, st := range got {
		enc, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, values[i]) {
			t.Errorf("trial %d: re-encoded stats differ from the journaled value\n got %s\nwant %s", i, enc, values[i])
		}
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Error("resuming a complete journal rewrote it")
	}
}
