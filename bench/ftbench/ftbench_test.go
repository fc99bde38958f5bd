package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json this
// program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, ftbench has %v", names, ours)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nftbench\n%v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nftbench\n%v", b.PerLayer, perLayer)
	}
	seen := make(map[string]bool)
	for _, n := range append(slices.Clone(ours), metricNames(append(slices.Clone(endToEnd), perLayer...))...) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestWorkloadsTiny runs every workload at tiny scale, untraced and
// traced, and checks the metrics each emits and the spans it records.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := options{seed: 3, tiny: true, dir: t.TempDir()}
			rep, err := runWorkload(context.Background(), w, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := metricNames(endToEnd)
			slices.Sort(want)
			if got := sortedKeys(rep.metrics); !slices.Equal(got, want) {
				t.Errorf("untraced metrics %v, want %v", got, want)
			}
			for k, v := range rep.metrics {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", k, v)
				}
			}
			if rep.failed != 0 || rep.attempted == 0 || len(rep.digests) != w.clients {
				t.Errorf("attempted %d failed %d digests %d", rep.attempted, rep.failed, len(rep.digests))
			}

			opt.traced = true
			rep, err = runWorkload(context.Background(), w, opt)
			if err != nil {
				t.Fatal(err)
			}
			want = metricNames(perLayer)
			slices.Sort(want)
			if got := sortedKeys(rep.metrics); !slices.Equal(got, want) {
				t.Errorf("traced metrics %v, want %v", got, want)
			}
			checkSpans(t, rep.spans)
		})
	}
}

// checkSpans asserts that every child span lies inside its parent and
// that each job's self times sum to its root span's duration.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byID := make(map[int]span)
	for _, s := range spans {
		byID[s.ID] = s
	}
	roots := make(map[int64]time.Duration)
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		if s.Parent == 0 {
			roots[s.Trace] = s.End - s.Start
			continue
		}
		p := byID[s.Parent]
		if p.Trace != s.Trace || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %s [%v,%v] is not inside its parent %s [%v,%v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	self := make(map[int64]time.Duration)
	for id, d := range selfTimes(spans) {
		self[byID[id].Trace] += d
	}
	for trace, root := range roots {
		if diff := math.Abs(float64(self[trace] - root)); diff > 0.01*float64(root) {
			t.Errorf("trace %d: self times sum to %v, root span lasts %v", trace, self[trace], root)
		}
	}
}

func TestSelfTimesOverlappingSiblings(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Trace: 1, Name: "job", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Trace: 1, Name: "campaign.run", Start: 1 * ms, End: 9 * ms},
		{ID: 3, Parent: 2, Trace: 1, Name: "campaign.trial", Start: 2 * ms, End: 6 * ms},
		{ID: 4, Parent: 2, Trace: 1, Name: "campaign.trial", Start: 4 * ms, End: 8 * ms},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 2 * ms, 2: 2 * ms, 3: 2 * ms, 4: 4 * ms}
	for id, d := range want {
		if got[id] != d {
			t.Errorf("span %d self time %v, want %v", id, got[id], d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "trials_per_s", Unit: "trials/s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{[]float64{100, 99, 101, 100, 98, 102, 100, 99, 101, 100}, "same"},
		{[]float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, "gain"},
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "regression"},
		{[]float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, "unresolved"},
	} {
		if got := judge(d, base, c.change).verdict; got != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.change, got, c.want)
		}
	}
}
