package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/obs"
)

// TestMetricsClassifyOutcomes: the trials-total counter partitions by
// outcome — ok, failed, panic, timeout.
func TestMetricsClassifyOutcomes(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	boom := errors.New("boom")
	spec := Spec{
		Name: "outcomes",
		Seed: 3,
		Trials: []Trial{
			{Label: "ok", Run: func(ctx context.Context, seed int64) (*cpu.Stats, error) { return statsOf(1), nil }},
			{Label: "fail", Run: func(ctx context.Context, seed int64) (*cpu.Stats, error) { return nil, boom }},
			{Label: "panic", Run: func(ctx context.Context, seed int64) (*cpu.Stats, error) { panic("eek") }},
			{Label: "slow", Run: func(ctx context.Context, seed int64) (*cpu.Stats, error) {
				<-ctx.Done() // only the per-trial deadline ends this
				return nil, ctx.Err()
			}},
		},
	}
	r := Runner{
		Workers: 2, Contain: true, Metrics: m,
		TrialTimeout: 50 * time.Millisecond,
	}
	if _, err := r.Run(context.Background(), spec); err == nil {
		t.Fatal("want a contained-failure summary error")
	}

	want := map[string]uint64{
		OutcomeOK:      1,
		OutcomeFailed:  1,
		OutcomePanic:   1,
		OutcomeTimeout: 1,
	}
	for outcome, n := range want {
		if got := m.trials.With(outcome).Value(); got != n {
			t.Errorf("trials_total{outcome=%q} = %d, want %d", outcome, got, n)
		}
	}
	if got := m.trialSeconds.With(OutcomeOK).Count(); got != 1 {
		t.Errorf("trial_seconds{ok} count = %d, want 1", got)
	}
}

// TestMetricsCheckpointAndResume: journal fsyncs report synced records
// and bytes; a resumed run counts restored trials.
func TestMetricsCheckpointAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	mkSpec := func() Spec {
		var trials []Trial
		for i := 0; i < 6; i++ {
			i := i
			trials = append(trials, Trial{
				Label: fmt.Sprintf("t%d", i),
				Run:   func(ctx context.Context, seed int64) (*cpu.Stats, error) { return statsOf(uint64(i)), nil },
			})
		}
		return Spec{Name: "ckpt", Seed: 9, Trials: trials}
	}

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	r := Runner{
		Workers: 1, Metrics: m,
		Checkpoint: &Checkpoint{Path: path, FlushEvery: 2},
	}
	rep, err := r.Run(context.Background(), mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != 0 {
		t.Fatalf("fresh run resumed %d trials", rep.Resumed)
	}
	// Header sync + 3 batches of 2 records.
	if got := m.ckptSyncs.Value(); got != 4 {
		t.Errorf("checkpoint_syncs_total = %d, want 4", got)
	}
	if got := m.ckptRecords.Value(); got != 6 {
		t.Errorf("checkpoint_synced_records_total = %d, want 6", got)
	}
	if m.ckptBytes.Value() == 0 {
		t.Error("checkpoint_synced_bytes_total = 0, want > 0")
	}

	// Resume over the complete journal: everything restores, nothing
	// executes, and the resumed counter says so.
	reg2 := obs.NewRegistry()
	m2 := NewMetrics(reg2)
	r2 := Runner{
		Workers: 1, Metrics: m2,
		Checkpoint: &Checkpoint{Path: path},
	}
	rep2, err := r2.Run(context.Background(), mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != 6 {
		t.Fatalf("resumed %d trials, want 6", rep2.Resumed)
	}
	if got := m2.resumed.Value(); got != 6 {
		t.Errorf("trials_resumed_total = %d, want 6", got)
	}
	if got := m2.trials.With(OutcomeOK).Value(); got != 0 {
		t.Errorf("resumed run executed %d trials", got)
	}
}

// TestMetricsArePureTap: a Runner with Metrics produces results
// identical to one without.
func TestMetricsArePureTap(t *testing.T) {
	mkSpec := func() Spec {
		var trials []Trial
		for i := 0; i < 12; i++ {
			trials = append(trials, Trial{
				Label: fmt.Sprintf("t%d", i),
				Run: func(ctx context.Context, seed int64) (*cpu.Stats, error) {
					return statsOf(uint64(seed)), nil
				},
			})
		}
		return Spec{Name: "tap", Seed: 42, Trials: trials}
	}
	plain, err := Runner{Workers: 3}.Run(context.Background(), mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	tapped, err := Runner{Workers: 3, Metrics: NewMetrics(obs.NewRegistry())}.
		Run(context.Background(), mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	got, want := committed(t, tapped), committed(t, plain)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("metrics tap perturbed results:\n got %v\nwant %v", got, want)
	}
}

// TestMetricsExposition: the campaign instruments render under the
// documented ftsim_* names.
func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	m.trialFinished(OutcomeOK, 0.25)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		`ftsim_trials_total{outcome="ok"} 1`,
		`ftsim_trial_seconds_count{outcome="ok"} 1`,
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %q:\n%s", name, out)
		}
	}
}
