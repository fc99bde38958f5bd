package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/ftsim"
)

// campaignOpt returns opt with the campaign options appended.
func campaignOpt(opt Options, copts ...ftsim.CampaignOption) Options {
	opt.Campaign = append(append([]ftsim.CampaignOption(nil), opt.Campaign...), copts...)
	return opt
}

// TestCampaignDeterminism is the parallelism regression gate: the same
// experiment at -parallel 1 and -parallel 8 must produce identical
// aggregated rows (and byte-identical rendered tables) for the same
// campaign seed. Fig6 exercises the seed-sensitive path (fault
// injection); Fig5 covers the fault-free grids.
func TestCampaignDeterminism(t *testing.T) {
	base := Options{MaxInsts: 6_000, Campaign: []ftsim.CampaignOption{ftsim.WithCampaignSeed(11)}}
	if testing.Short() {
		base.MaxInsts = 2_000 // keep the concurrency gate, trim the budget
	}
	serial := campaignOpt(base, ftsim.WithWorkers(1))
	par := campaignOpt(base, ftsim.WithWorkers(8))

	r1, err := Fig6("fpppp", serial)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Fig6("fpppp", par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("fig6 rows differ between -parallel 1 and -parallel 8:\n%+v\n%+v", r1, r8)
	}
	var t1, t8 strings.Builder
	PrintFig6(&t1, "fpppp", r1)
	PrintFig6(&t8, "fpppp", r8)
	if t1.String() != t8.String() {
		t.Error("fig6 rendered tables not byte-identical")
	}

	if testing.Short() {
		return // the fig6 arm above already exercised worker-count invariance
	}
	f1, err := Fig5(serial)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Fig5(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f8) {
		t.Errorf("fig5 rows differ between -parallel 1 and -parallel 8")
	}
}

// TestCampaignSeedMatters guards against the degenerate "determinism"
// of ignoring the seed entirely: a different campaign seed must change
// the injected-fault trajectory somewhere in the sweep. It also checks
// Fig 6's seed pairing: the R=2 and R=3 arms at one fault rate run
// under one seed, and adjacent rates do not share it.
func TestCampaignSeedMatters(t *testing.T) {
	var rep *ftsim.CampaignReport
	opt := Options{MaxInsts: 6_000, Report: func(r *ftsim.CampaignReport) { rep = r }}
	a, err := Fig6("fpppp", campaignOpt(opt, ftsim.WithCampaignSeed(11)))
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results
	if len(res) != 2*len(a) {
		t.Fatalf("report has %d trials for %d rows", len(res), len(a))
	}
	for i := 0; i < len(res); i += 2 {
		if res[i].Seed != res[i+1].Seed {
			t.Errorf("%s and %s drew seeds %d and %d", res[i].Label, res[i+1].Label, res[i].Seed, res[i+1].Seed)
		}
		if i > 0 && res[i].Seed == res[i-2].Seed {
			t.Errorf("%s shares its seed with %s", res[i].Label, res[i-2].Label)
		}
	}
	b, err := Fig6("fpppp", campaignOpt(opt, ftsim.WithCampaignSeed(12)))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("fig6 identical under different campaign seeds")
	}
}

// TestCampaignCheckpoint runs Fig 6 with a checkpoint directory: a
// rerun without Resume is refused and names the journal, a resumed run
// restores every trial and returns the same rows, and another
// benchmark in the same directory starts its own journal.
func TestCampaignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var rep *ftsim.CampaignReport
	opt := Options{MaxInsts: 2_000, CheckpointDir: dir, Report: func(r *ftsim.CampaignReport) { rep = r }}
	want, err := Fig6("fpppp", opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fig6-fpppp.ckpt")
	if _, err := Fig6("fpppp", opt); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("rerun without Resume: err = %v, want a refusal naming %s", err, path)
	}

	resume := opt
	resume.Resume = true
	rep = nil
	got, err := Fig6("fpppp", resume)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed rows differ:\n%+v\n%+v", got, want)
	}
	if rep == nil || rep.Resumed != 20 {
		t.Errorf("resumed report: %+v, want 20 resumed trials", rep)
	}

	if _, err := Fig6("gcc", opt); err != nil {
		t.Fatalf("gcc run next to an fpppp journal: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig6-gcc.ckpt")); err != nil {
		t.Errorf("gcc run did not start its own journal: %v", err)
	}
}

// TestCampaignProgress checks the per-trial progress stream the CLIs
// attach: one callback per grid point, labels carrying the experiment
// name.
func TestCampaignProgress(t *testing.T) {
	var labels []string
	var rep *ftsim.CampaignReport
	opt := Options{MaxInsts: 2_000}
	opt.Campaign = []ftsim.CampaignOption{
		ftsim.WithWorkers(1),
		ftsim.WithCampaignProgress(func(done, total int, r ftsim.TrialResult) {
			if total != 33 {
				t.Errorf("total = %d, want 33", total)
			}
			labels = append(labels, r.Label)
		}),
	}
	opt.Report = func(r *ftsim.CampaignReport) { rep = r }
	if _, err := Fig5(opt); err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.TrialSeconds.N() != 33 || rep.Workers != 1 || rep.Spec != "fig5" {
		t.Fatalf("report hook: %+v", rep)
	}
	if len(labels) != 33 {
		t.Fatalf("got %d progress callbacks", len(labels))
	}
	for _, l := range labels {
		if !strings.HasPrefix(l, "fig5/") {
			t.Errorf("label %q missing experiment prefix", l)
		}
	}
}
