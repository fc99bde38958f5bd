// Package ftsim is the public, embeddable API of the fault-tolerant
// superscalar reproduction ("Dual Use of Superscalar Datapath for
// Transient-Fault Detection and Recovery", Ray, Hoe, Falsafi; MICRO
// 2001). It is the one supported way to build and run the paper's
// machines — the CLIs, the experiment drivers and the examples are all
// thin layers over it.
//
// # Building a machine
//
// A Machine is assembled from functional options over a serializable
// Config. Model options pick one of the paper's designs; field options
// refine it:
//
//	m, err := ftsim.New(ftsim.SS2(),
//		ftsim.WithFaultRate(1e-4),
//		ftsim.WithFaultTargets(ftsim.AllFaultTargets()...),
//		ftsim.WithOracle(),
//		ftsim.WithMaxInsts(1_000_000))
//
// The assembled Config round-trips through JSON (Config.JSON /
// ParseConfig) with validation and Table 1 defaults, so campaigns and
// services can persist and replay exact machine descriptions.
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
