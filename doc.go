// Package repro is a from-scratch Go reproduction of "Dual Use of
// Superscalar Datapath for Transient-Fault Detection and Recovery"
// (Ray, Hoe, Falsafi; MICRO 2001).
//
// The supported programmatic surface is the top-level package ftsim:
// serializable machine configs with one constructor, NewFromConfig,
// context-aware sessions, streaming progress observers and a typed
// error taxonomy. The implementation lives under internal/: package
// cpu implements the paper's fault-tolerant superscalar (redundant
// instruction injection, commit-stage cross-checking, rewind recovery
// and majority election) in its out-of-order datapath; packages isa,
// asm, mem, prog, cache, bpred, ecc, funcsim, fault, model, workload,
// stats, campaign and experiments provide the ISA, tooling, substrates
// and evaluation drivers. See
// README.md, DESIGN.md and EXPERIMENTS.md.
//
// The benchmarks in this directory (bench_test.go) regenerate every
// table and figure of the paper's evaluation; run them with
//
//	go test -bench=. -benchmem .
package repro
