// Package ftsim is the public, embeddable API of the fault-tolerant
// superscalar reproduction ("Dual Use of Superscalar Datapath for
// Transient-Fault Detection and Recovery", Ray, Hoe, Falsafi; MICRO
// 2001). It is the one supported way to build and run the paper's
// machines — the CLIs, the experiment drivers and the examples are all
// thin layers over it.
//
// # Building a machine
//
// A Machine is built from a serializable Config by NewFromConfig.
// Model.Config returns one of the paper's designs with every field
// explicit; edit the fields a run needs:
//
//	cfg := ftsim.ModelSS2.Config()
//	cfg.Fault = ftsim.FaultConfig{Rate: 1e-4, Targets: ftsim.AllFaultTargets()}
//	cfg.Oracle = true
//	cfg.MaxInsts = 1_000_000
//	m, err := ftsim.NewFromConfig(cfg)
//
// Runtime hooks that are not part of the machine description —
// WithObserver, WithObserveEvery, WithTraceBuffer and WithStrictOracle
// — are the Options NewFromConfig takes after the Config.
//
// A Config round-trips through JSON (Config.JSON / ParseConfig) with
// validation and Table 1 defaults, so campaigns and services can
// persist and replay exact machine descriptions.
//
// # Running
//
// Programs come from the built-in Table 2 benchmark suite (Benchmark)
// or the SRISC assembler (Assemble). A Session is one simulation; its
// Run takes a context that is honoured mid-simulation:
//
//	p, _ := ftsim.Benchmark("fpppp")
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	st, err := m.Run(ctx, p) // or m.Load(p) then session.Run(ctx)
//	fmt.Println(st.IPC(), st.FaultsDetected, st.FaultRewinds)
//
// Progress streams through an Observer instead of arriving only as the
// final Stats: install one with WithObserver to receive per-interval
// IPC, fault-detection and recovery counts.
//
// # Errors
//
// Failures are typed: configuration problems satisfy errors.Is(err,
// ErrInvalidConfig) (with *ConfigError naming the field), unknown names
// ErrUnknownModel / ErrUnknownBenchmark, pipeline lockup ErrDeadlock,
// and committed corruption ErrOracleMismatch (strict sessions) or
// ErrFaultEscape (post-run audit via CheckEscapes). Cancellation
// surfaces as the context's own error.
//
// The facade lowers a Config straight to the datapath's configuration
// and returns the datapath's own statistics, without translation. A
// golden file pins the results of every preset on every Table 2
// workload.
package ftsim
