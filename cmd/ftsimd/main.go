// Command ftsimd serves fault-injection campaigns over HTTP.
//
// Clients POST campaign grids as JSON — either a full campaign request
// or a bare machine config (the ftsim/testdata golden files are valid
// bodies as-is) — and the daemon queues them onto the campaign engine,
// streams per-interval samples and per-trial completions as SSE, and
// keeps one journal file per job under -data-dir (the submission, the
// completed trials and the final status) so a killed or restarted
// daemon resumes unfinished campaigns where they stopped.
//
//	ftsimd -addr :8080 -data-dir /var/lib/ftsimd
//	ftsimd -addr 127.0.0.1:0 -jobs 2 -workers 4
//
// Coordinator mode shards campaigns across a fleet of worker ftsimd
// daemons instead of simulating locally — same API, same results,
// byte for byte:
//
//	ftsimd -coordinator -worker-urls http://w1:8080,http://w2:8080
//
// -auth-token locks the daemon's campaign API behind a shared bearer
// token (probe endpoints stay open); -worker-auth-token is the
// credential a coordinator presents to its workers.
//
// Observability: GET /metrics serves the Prometheus text exposition
// (queue, job lifecycle, SSE hub, HTTP serving, campaign-engine and —
// in coordinator mode — shard-dispatch families), -pprof mounts
// net/http/pprof under /debug/pprof/, and operational logs are
// structured (-log-format text|json, -log-level).
//
// SIGINT/SIGTERM drain gracefully: admission stops, running campaigns
// flush their checkpoint journals and return, queued jobs stay queued
// for the next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/coord"
	"repro/internal/obs"
	"repro/internal/server"
)

// newLogger builds the daemon logger from the -log-format and
// -log-level flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// splitURLs parses the -worker-urls list, trimming blanks so trailing
// commas and stray spaces don't become phantom workers.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, strings.TrimRight(u, "/"))
		}
	}
	return out
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	dataDir := flag.String("data-dir", "", "persistence root, one journal file per job (empty = ephemeral)")
	queue := flag.Int("queue", 64, "max queued jobs across all clients")
	jobs := flag.Int("jobs", 1, "campaigns running concurrently")
	workers := flag.Int("workers", 0, "default worker goroutines per campaign (0 = GOMAXPROCS)")
	maxQueuedPerClient := flag.Int("max-queued-per-client", 16, "max active (queued+running) jobs per client token")
	maxTrialsPerClient := flag.Int("max-trials-per-client", 1_000_000, "max trials in flight per client token")
	defaultBench := flag.String("default-bench", "gcc", "benchmark for trials that name none")
	defaultMaxInsts := flag.Uint64("default-max-insts", 200_000, "instruction budget applied to configs with no run limits")
	observeEvery := flag.Uint64("observe-every", 0, "SSE interval-sample period in cycles (0 = library default)")
	flushEvery := flag.Int("flush-every", 1, "checkpoint fsync batch size (1 = every completed trial is durable)")
	trialTimeout := flag.Duration("trial-timeout", 0, "per-trial deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before the process gives up waiting")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	authToken := flag.String("auth-token", os.Getenv("FTSIMD_AUTH_TOKEN"), "shared bearer token required on the campaign API (env FTSIMD_AUTH_TOKEN; empty = open)")
	coordinator := flag.Bool("coordinator", false, "shard campaigns across -worker-urls instead of simulating locally")
	workerURLs := flag.String("worker-urls", "", "comma-separated worker ftsimd base URLs (coordinator mode)")
	shards := flag.Int("shards", 0, "default shards per campaign in coordinator mode (0 = one per worker)")
	workerAuthToken := flag.String("worker-auth-token", os.Getenv("FTSIMD_WORKER_AUTH_TOKEN"), "bearer token presented to workers (env FTSIMD_WORKER_AUTH_TOKEN)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print(os.Stdout, "ftsimd")
		return
	}
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftsimd: %v\n", err)
		os.Exit(2)
	}
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	cfg := server.Config{
		DataDir:            *dataDir,
		MaxQueue:           *queue,
		Concurrency:        *jobs,
		WorkersPerJob:      *workers,
		MaxQueuedPerClient: *maxQueuedPerClient,
		MaxTrialsPerClient: *maxTrialsPerClient,
		DefaultBenchmark:   *defaultBench,
		DefaultMaxInsts:    *defaultMaxInsts,
		ObserveEvery:       *observeEvery,
		FlushEvery:         *flushEvery,
		TrialTimeout:       *trialTimeout,
		AuthToken:          *authToken,
		Logger:             logger,
	}
	if *coordinator {
		// One registry for the whole process so /metrics carries the
		// ftsimd_coord_* families next to the server's own.
		cfg.Registry = obs.NewRegistry()
		co, err := coord.New(coord.Config{
			Workers:   splitURLs(*workerURLs),
			AuthToken: *workerAuthToken,
			Shards:    *shards,
			Logger:    logger,
			Registry:  cfg.Registry,
		})
		if err != nil {
			fatal(err)
		}
		defer co.Close()
		cfg.Backend = co
	} else if *workerURLs != "" {
		fatal(fmt.Errorf("-worker-urls requires -coordinator"))
	}

	s, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Print the resolved address on stdout so scripts using port 0 can
	// discover where the daemon landed.
	fmt.Println(ln.Addr().String())
	logger.Info("listening", "addr", ln.Addr().String(), "data_dir", *dataDir, "slots", *jobs, "pprof", *pprofOn)

	// The service handler carries its own middleware (request IDs,
	// /metrics); pprof mounts outside it so profile downloads don't
	// skew the request histograms.
	root := http.NewServeMux()
	root.Handle("/", s.Handler())
	if *pprofOn {
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	httpSrv := &http.Server{Handler: root}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		logger.Info("shutdown signal; draining", "budget", *drainTimeout)
	case err := <-errc:
		fatal(err)
	}

	// Stop accepting connections, then drain the job engine: running
	// campaigns are cancelled and flush their journals before we exit.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if err := s.Drain(dctx); err != nil {
		logger.Error("drain failed", "err", err)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
