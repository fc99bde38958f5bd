// Command ftbench is the repository's benchmark: it runs the simulator
// the ways its users do — the Fig 5 and Fig 6 campaigns through the
// library, small jobs through an ftsimd daemon, and Fig 5 grids through
// a coordinator in front of two worker daemons — and reports end-to-end
// metrics, or with -trace 1 per-layer metrics, after checking that every
// result is correct.
//
// Run one workload (bench/run.sh builds the binary and runs it):
//
//	ftbench -workload fig5-steady -seed 1 -seconds 20 -trace 0
//
// Without -workload every workload runs, each in its own child process.
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print each
// metric as "workload metric value unit". -out appends a record of the
// run, with the host's fingerprint, to a file that
//
//	ftbench compare <base-dir> <change-dir>
//
// reads to judge a change against its parent.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// value is one metric as printed in the result object.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run as -out stores it for compare.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    int      `json:"trace"`
	Host     host     `json:"host"`
	Digests  []string `json:"digests,omitempty"`
	Result   result   `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Stdout, os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run; empty runs every workload, each in a child process")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", "", "append a JSON record of each run to this file")
	workdir := flag.String("workdir", ".bench_build", "directory for temporary files and trace output")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "ftbench: -trace must be 0 or 1")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *name == "" {
		if err := runAll(ctx, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "ftbench:", err)
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "ftbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		os.Exit(1)
	}
	opt := options{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		dir:    *workdir,
	}
	h := fingerprint()
	fmt.Fprintf(os.Stderr, "host: %+v\n", h)

	rep, err := runWorkload(ctx, w, opt)
	res := result{Correct: err == nil, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: make(map[string]value)}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %s: %v\n", w.name, err)
	} else {
		defs := endToEnd
		if opt.traced {
			defs = perLayer
		}
		for _, d := range defs {
			v := rep.metrics[d.Name]
			res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
			fmt.Printf("%s %s %.6g %s\n", w.name, d.Name, v, d.Unit)
		}
	}
	if len(rep.digests) > 0 {
		fmt.Fprintf(os.Stderr, "statistics digests (seed %d): %q\n", opt.seed, rep.digests)
	}
	if len(rep.spans) > 0 {
		printSelfTimes(os.Stderr, rep.spans)
		if terr := writeTrace(filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.json", w.name, opt.seed)), rep.spans); terr != nil {
			fmt.Fprintln(os.Stderr, "ftbench: writing trace:", terr)
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", jerr)
		os.Exit(1)
	}
	if *out != "" {
		rec := record{Workload: w.name, Seed: opt.seed, Seconds: *seconds, Trace: *trace, Host: h, Digests: rep.digests, Result: res}
		if oerr := appendRecord(*out, rec); oerr != nil {
			fmt.Fprintln(os.Stderr, "ftbench:", oerr)
			err = errors.Join(err, oerr)
		}
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, one after the
// other, so each workload's memory and set-up are its own.
func runAll(ctx context.Context, args []string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var errs []error
	for _, w := range workloads {
		cmd := exec.CommandContext(ctx, exe, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.name, err))
		}
	}
	return errors.Join(errs...)
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintln(os.Stderr, "trace written to", path)
	return f.Close()
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
