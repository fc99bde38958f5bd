package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/ftsim"
)

const fuzzSrc = `
        li   r1, 2000
        li   r2, 11
        li   r3, 22
loop:   add  r2, r2, r1
        xor  r3, r3, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        out  r3
        halt
`

// fuzzConfig is the deliberately small machine behind the snapshot
// fuzz seed and the byte-format fixtures: tiny caches and predictor
// tables so snapshots stay a few KB. rate 0 builds no fault injector.
func fuzzConfig(model ftsim.Model, rate float64, oracle bool) ftsim.Config {
	cfg := model.Config()
	cfg.Memory = ftsim.MemoryConfig{
		IL1:     ftsim.CacheConfig{SizeBytes: 1024, Ways: 1, LineBytes: 32, HitLatency: 1},
		DL1:     ftsim.CacheConfig{SizeBytes: 1024, Ways: 1, LineBytes: 32, HitLatency: 1},
		L2:      ftsim.CacheConfig{SizeBytes: 4096, Ways: 1, LineBytes: 64, HitLatency: 6},
		Latency: 40,
	}
	cfg.BranchPred = ftsim.BranchPredConfig{
		Kind:        "comb",
		BimodalSize: 64,
		L1Size:      2,
		HistBits:    6,
		L2Size:      64,
		XOR:         true,
		MetaSize:    64,
		BTBSets:     16,
		BTBWays:     2,
		RASSize:     8,
	}
	if rate > 0 {
		cfg.Fault = ftsim.FaultConfig{Rate: rate, Seed: 11, Targets: ftsim.AllFaultTargets()}
	}
	cfg.Oracle = oracle
	cfg.MaxInsts = 1_000
	cfg.MaxCycles = 100_000
	return cfg
}

// runToSnapshot builds cfg's machine, runs the fuzz program into the
// middle of its loop (the budget ends it) and returns the machine plus
// a snapshot taken there.
func runToSnapshot(tb testing.TB, cfg ftsim.Config) (*ftsim.Machine, []byte) {
	tb.Helper()
	program, err := ftsim.Assemble("fuzz.s", fuzzSrc)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := m.Load(program)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return m, s.Snapshot()
}

// snapshotFuzzMachine returns the SS-2 fuzz machine and its mid-run
// snapshot. The committed corpus under testdata/fuzz/FuzzSnapshotDecode/
// was produced from exactly this machine, so the fuzzer mutates from a
// structurally valid blob that the machine actually accepts.
func snapshotFuzzMachine(tb testing.TB) (*ftsim.Machine, []byte) {
	tb.Helper()
	return runToSnapshot(tb, fuzzConfig(ftsim.ModelSS2, 5e-4, false))
}

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot restore
// path. The decoder's contract: for any input it either restores a
// coherent, runnable session or rejects the blob with an error — it
// never panics, never over-allocates from hostile length fields, and
// never leaves the machine half-restored in a way that crashes a
// subsequent run. Seeds include a real mid-run snapshot (so the
// fuzzer mutates from a structurally valid starting point) and a few
// degenerate shapes.
//
// Each input's CRC trailer is recomputed before the restore: a mutation
// that only failed the checksum would never reach the field decoders.
// The restoring machine's budget is the fixtures' resume budget, three
// times the donor's, so an accepted snapshot really runs.
//
// The committed seed corpus lives in testdata/fuzz/FuzzSnapshotDecode/;
// `go test -fuzz=FuzzSnapshotDecode ./internal/core` explores from there.
func FuzzSnapshotDecode(f *testing.F) {
	_, blob := snapshotFuzzMachine(f)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:16])
	f.Add([]byte{})
	f.Add([]byte("FTSN"))

	cfg := fuzzConfig(ftsim.ModelSS2, 5e-4, false)
	cfg.MaxInsts = fixtureBudget
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		reseal(data)
		s, err := m.Restore(data)
		if err != nil {
			return // rejected without panicking: fine
		}
		// An accepted blob must yield a session that runs (or finishes)
		// cleanly under its budget.
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatalf("restored session failed to run: %v", err)
		}
	})
}

// TestSnapshotFuzzSeedRestores: the committed mid-run seed must be
// accepted, not merely survived, by the fuzz machine — a rejected seed
// would mean the machine's configuration fingerprint moved and every
// snapshot taken under the old one stopped restoring — and re-snapshot
// to the same bytes, which pins the format it was written in.
func TestSnapshotFuzzSeedRestores(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode", "ss2-loop-midrun"))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("unexpected corpus file layout:\n%.60q", data)
	}
	blob, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := snapshotFuzzMachine(t)
	s, err := m.Restore([]byte(blob))
	if err != nil {
		t.Fatalf("committed seed rejected: %v", err)
	}
	if again := s.Snapshot(); !bytes.Equal(again, []byte(blob)) {
		t.Errorf("restore then Snapshot changed the seed's bytes (%d vs %d)", len(again), len(blob))
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}
