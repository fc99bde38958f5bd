package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// compareMain implements "ftbench compare <base-dir> <change-dir>": it
// reads the untraced records that -out appended to *.jsonl files in
// each directory and
// judges every end-to-end metric of every workload the two share.
//
//   - gain: the change wins at least 9 in 10 of the pairs (ties count
//     for neither) and the medians differ by more than the base's
//     interquartile range;
//   - unresolved: otherwise, when either side's interquartile range is
//     wider than the metric's bound, as a share of its median;
//   - regression: otherwise, when the change's median is worse than the
//     base's by more than the bound;
//   - same: none of these.
//
// Runs pair up in seed order. Records from different hosts, or of
// different run lengths, are refused. The exit code is 1 if any metric
// regressed and 2 if the records cannot be compared.
func compareMain(w io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ftbench compare <base-dir> <change-dir>")
		return 2
	}
	base, err := loadRecords(args[0])
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("%s holds no untraced records", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftbench compare:", err)
		return 2
	}
	change, err := loadRecords(args[1])
	if err == nil && len(change) == 0 {
		err = fmt.Errorf("%s holds no untraced records", args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftbench compare:", err)
		return 2
	}
	ref := base[0]
	for _, r := range append(slices.Clone(base), change...) {
		if !r.Host.sameMachine(ref.Host) {
			fmt.Fprintf(os.Stderr, "ftbench compare: refusing to compare results from different hosts: %+v and %+v\n", ref.Host, r.Host)
			return 2
		}
		if r.Seconds != ref.Seconds {
			fmt.Fprintf(os.Stderr, "ftbench compare: refusing to compare runs of %gs and %gs\n", ref.Seconds, r.Seconds)
			return 2
		}
	}

	code := 0
	for _, wl := range workloads {
		b, c := byWorkload(base, wl.name), byWorkload(change, wl.name)
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		var cells []string
		for _, d := range endToEnd {
			v := judge(d, values(b, d.Name), values(c, d.Name))
			if v.verdict == "regression" {
				code = 1
			}
			cells = append(cells, fmt.Sprintf("%s=%s(%+.1f%%)", d.Name, v.verdict, 100*v.delta))
		}
		fmt.Fprintf(w, "%s pairs=%d %s\n", wl.name, min(len(b), len(c)), strings.Join(cells, " "))
	}
	return code
}

// verdict is the judgement of one metric on one workload; delta is the
// change of the median as a share of the base's.
type verdict struct {
	verdict string
	delta   float64
}

func judge(d metricDef, base, change []float64) verdict {
	if len(base) < 2 || len(change) < 2 {
		return verdict{verdict: "unresolved", delta: math.NaN()}
	}
	bq1, bmed, bq3 := quartiles(base)
	cq1, cmed, cq3 := quartiles(change)
	better := func(x, y float64) bool { // x reads better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins, pairs := 0, min(len(base), len(change))
	for i := range pairs {
		if better(change[i], base[i]) {
			wins++
		}
	}
	v := verdict{delta: (cmed - bmed) / bmed}
	switch {
	case 10*wins >= 9*pairs && math.Abs(cmed-bmed) > bq3-bq1 && better(cmed, bmed):
		v.verdict = "gain"
	case (bq3-bq1)/bmed > d.Bound || (cq3-cq1)/cmed > d.Bound:
		v.verdict = "unresolved"
	case better(bmed, cmed) && math.Abs(cmed-bmed) > d.Bound*bmed:
		v.verdict = "regression"
	default:
		v.verdict = "same"
	}
	return v
}

// loadRecords reads every untraced record of a directory's *.jsonl
// files, in seed order.
func loadRecords(dir string) ([]record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			switch {
			case r.Trace != 0:
			case !r.Result.Correct:
				fmt.Fprintf(os.Stderr, "ftbench compare: %s: skipping a failed %s run (seed %d)\n", path, r.Workload, r.Seed)
			default:
				recs = append(recs, r)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	slices.SortStableFunc(recs, func(a, b record) int { return cmp.Compare(a.Seed, b.Seed) })
	return recs, nil
}

func byWorkload(recs []record, name string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []record, metric string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Result.Metrics[metric].Value
	}
	return out
}
