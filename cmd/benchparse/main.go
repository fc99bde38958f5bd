// Command benchparse converts `go test -bench` output into a JSON
// benchmark record so the repository can track simulator performance
// across PRs (BENCH_PR2.json and successors).
//
// It reads benchmark output on stdin and writes (or merges into) a JSON
// file mapping a label — e.g. "before" / "after" — to the parsed
// results, so one file can carry a comparison:
//
//	go test -run='^$' -bench=Campaign -benchmem . | benchparse -label after -out BENCH_PR2.json
//
// With -gate it additionally acts as a regression gate: the freshly
// parsed results are compared against a recorded baseline file and the
// command exits non-zero when any benchmark regressed beyond the
// thresholds —
//
//	... | benchparse -label ci -out bench-ci.json \
//	        -gate BENCH_PR6.json -gate-label after \
//	        -alloc-threshold 0.10 -speed-threshold 0.10
//
// Allocations per op are gated upward (more is a regression) and
// throughput metrics — those whose unit ends in "/s" — downward (less
// is a regression). Benchmarks present on only one side are reported
// but do not fail the gate, so adding or retiring a benchmark does not
// require a lock-step baseline update. Time per op is deliberately not
// gated: it is the reciprocal of the throughput metrics but noisier to
// compare across hosts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_op,omitempty"`
	BytesPerOp float64            `json:"bytes_op,omitempty"`
	AllocsOp   float64            `json:"allocs_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// File is the on-disk schema: environment header plus per-label results.
// Nproc (the host's CPU count) and Gomaxprocs (the benchmarks'
// GOMAXPROCS) tell whether two trajectories came from comparable hosts.
type File struct {
	Note       string              `json:"note,omitempty"`
	Goos       string              `json:"goos,omitempty"`
	Goarch     string              `json:"goarch,omitempty"`
	CPU        string              `json:"cpu,omitempty"`
	Nproc      int                 `json:"nproc,omitempty"`
	Gomaxprocs int                 `json:"gomaxprocs,omitempty"`
	Labels     map[string][]Result `json:"labels"`
}

func main() {
	label := flag.String("label", "after", "label for this result set (e.g. before, after)")
	out := flag.String("out", "BENCH_PR2.json", "output JSON file (merged if it exists)")
	note := flag.String("note", "", "optional note stored in the file header")
	gateFile := flag.String("gate", "", "baseline JSON file to gate against (empty = no gate)")
	gateLabel := flag.String("gate-label", "after", "label inside the baseline file to compare with")
	allocThreshold := flag.Float64("alloc-threshold", 0.10, "max fractional allocs/op increase before the gate fails")
	speedThreshold := flag.Float64("speed-threshold", 0.10, "max fractional throughput (*/s metric) decrease before the gate fails")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "benchparse")
		return
	}

	f := &File{Labels: map[string][]Result{}}
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, f); err != nil {
			fmt.Fprintf(os.Stderr, "benchparse: %s: %v\n", *out, err)
			os.Exit(1)
		}
		if f.Labels == nil {
			f.Labels = map[string][]Result{}
		}
	}
	if *note != "" {
		f.Note = *note
	}

	results, err := parse(os.Stdin, f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchparse: read: %v\n", err)
		os.Exit(1)
	}
	f.Nproc = runtime.NumCPU()
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchparse: no benchmark lines on stdin")
		os.Exit(1)
	}
	f.Labels[*label] = results

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchparse: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchparse: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchparse: wrote %d results under label %q to %s\n", len(results), *label, *out)

	if *gateFile != "" {
		base := &File{}
		data, err := os.ReadFile(*gateFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchparse: gate baseline: %v\n", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(data, base); err != nil {
			fmt.Fprintf(os.Stderr, "benchparse: gate baseline %s: %v\n", *gateFile, err)
			os.Exit(1)
		}
		if msg := hostMismatch(base, f); msg != "" {
			fmt.Printf("benchparse: gate: WARNING: %s; throughput comparisons cross hosts\n", msg)
		}
		baseline, ok := base.Labels[*gateLabel]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchparse: gate baseline %s has no label %q\n", *gateFile, *gateLabel)
			os.Exit(1)
		}
		regressions, skipped, compared := gate(results, baseline, *allocThreshold, *speedThreshold)
		for _, s := range skipped {
			fmt.Printf("benchparse: gate: skipping %s (not in baseline)\n", s)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "benchparse: REGRESSION: %s\n", r)
			}
			fmt.Fprintf(os.Stderr, "benchparse: gate FAILED against %s label %q (%d regressions)\n",
				*gateFile, *gateLabel, len(regressions))
			os.Exit(1)
		}
		fmt.Printf("benchparse: gate passed against %s label %q (%d comparisons)\n",
			*gateFile, *gateLabel, compared)
	}
}

// gate compares the current results against a recorded baseline and
// returns the regression descriptions, the names skipped for having no
// baseline entry, and the number of individual comparisons made.
// Allocations may grow by at most allocT fractionally (plus an absolute
// slack of 2 allocations, so tiny counts don't flap on rounding);
// metrics whose unit ends in "/s" may shrink by at most speedT.
func gate(cur, baseline []Result, allocT, speedT float64) (regressions, skipped []string, compared int) {
	baseByName := make(map[string]Result, len(baseline))
	for _, b := range baseline {
		baseByName[b.Name] = b
	}
	for _, c := range cur {
		b, ok := baseByName[c.Name]
		if !ok {
			skipped = append(skipped, c.Name)
			continue
		}
		if b.AllocsOp > 0 || c.AllocsOp > 0 {
			compared++
			if limit := b.AllocsOp*(1+allocT) + 2; c.AllocsOp > limit {
				regressions = append(regressions,
					fmt.Sprintf("%s: allocs/op %.0f -> %.0f (limit %.0f, +%.0f%%)",
						c.Name, b.AllocsOp, c.AllocsOp, limit, 100*(c.AllocsOp/b.AllocsOp-1)))
			}
		}
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			bv := b.Metrics[unit]
			if !strings.HasSuffix(unit, "/s") || bv <= 0 {
				continue
			}
			cv, ok := c.Metrics[unit]
			if !ok {
				continue
			}
			compared++
			if floor := bv * (1 - speedT); cv < floor {
				regressions = append(regressions,
					fmt.Sprintf("%s: %s %.4g -> %.4g (floor %.4g, %.0f%%)",
						c.Name, unit, bv, cv, floor, 100*(cv/bv-1)))
			}
		}
	}
	return regressions, skipped, compared
}

// parse reads `go test -bench` output, recording the environment
// header lines (goos, goarch, cpu) and the GOMAXPROCS the benchmarks
// ran at in f, and returns the parsed result lines.
func parse(r io.Reader, f *File) ([]Result, error) {
	var results []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			f.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			f.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			f.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if r, ok := parseLine(line); ok {
			results = append(results, r)
			_, f.Gomaxprocs = splitProcs(strings.Fields(line)[0])
		}
	}
	return results, sc.Err()
}

// splitProcs splits a benchmark name into the name proper and the
// GOMAXPROCS suffix go test appends to it ("BenchmarkX-8"); go test
// appends none when GOMAXPROCS is 1.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}

// hostMismatch describes how two files' hosts differ, or returns "" when
// they match or a file predates the host fields.
func hostMismatch(base, cur *File) string {
	var diffs []string
	if base.CPU != "" && cur.CPU != "" && base.CPU != cur.CPU {
		diffs = append(diffs, fmt.Sprintf("cpu %q vs %q", base.CPU, cur.CPU))
	}
	if base.Nproc != 0 && cur.Nproc != 0 && base.Nproc != cur.Nproc {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", base.Nproc, cur.Nproc))
	}
	if base.Gomaxprocs != 0 && cur.Gomaxprocs != 0 && base.Gomaxprocs != cur.Gomaxprocs {
		diffs = append(diffs, fmt.Sprintf("gomaxprocs %d vs %d", base.Gomaxprocs, cur.Gomaxprocs))
	}
	return strings.Join(diffs, ", ")
}

// parseLine parses one benchmark result line of the form
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   1 allocs/op   2.5 widget/s
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name, _ := splitProcs(fields[0])
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = val
		case "allocs/op":
			r.AllocsOp = val
		default:
			r.Metrics[unit] = val
		}
	}
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	return r, true
}
