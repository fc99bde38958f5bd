package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/ftsim"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/snap"
)

// snapshotFixtures are the machines behind the byte-format fixtures in
// testdata/snapshot/: <name>.snap is the mid-run snapshot runToSnapshot
// takes, and <name>.stats.json the Stats of that snapshot's
// continuation under fixtureBudget, both written by the snapshot code
// that introduced them. Together they pin the snap.Version 1 layout:
// any change to what a snapshot stores, or in which order, fails
// TestSnapshotFixtures.
var snapshotFixtures = []struct {
	name string
	cfg  ftsim.Config
}{
	{"ss2-fault5e-4", fuzzConfig(ftsim.ModelSS2, 5e-4, false)},
	{"ss1-nofault", fuzzConfig(ftsim.ModelSS1, 0, false)},
	{"ss3-fault1e-3-oracle", fuzzConfig(ftsim.ModelSS3, 1e-3, true)},
	// Run to the halt, so Output and Halted are not empty.
	{"ss2-halted", func() ftsim.Config {
		cfg := fuzzConfig(ftsim.ModelSS2, 5e-4, false)
		cfg.MaxInsts = 20_000
		return cfg
	}()},
}

// fixtureBudget is the instruction budget a fixture resumes under:
// three times the fuzz machine's, and still short of the program's end.
const fixtureBudget = 3_000

// continueFrom restores blob on a machine built from cfg with a
// fixtureBudget budget and runs it to that budget.
func continueFrom(t *testing.T, cfg ftsim.Config, blob []byte) *ftsim.Stats {
	t.Helper()
	cfg.MaxInsts = fixtureBudget
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSnapshotFixtures: the committed fixtures are what today's code
// writes for the same run, they restore and re-snapshot to the same
// bytes, and their continuation reproduces the pinned Stats (a halted
// fixture's continuation runs nothing).
func TestSnapshotFixtures(t *testing.T) {
	for _, fx := range snapshotFixtures {
		t.Run(fx.name, func(t *testing.T) {
			base := filepath.Join("testdata", "snapshot", fx.name)
			blob, err := os.ReadFile(base + ".snap")
			if err != nil {
				t.Fatal(err)
			}
			wantStats, err := os.ReadFile(base + ".stats.json")
			if err != nil {
				t.Fatal(err)
			}

			m, fresh := runToSnapshot(t, fx.cfg)
			if !bytes.Equal(fresh, blob) {
				t.Errorf("snapshot of the fixture run differs from %s.snap (%d vs %d bytes)", fx.name, len(fresh), len(blob))
			}
			s, err := m.Restore(blob)
			if err != nil {
				t.Fatalf("fixture rejected: %v", err)
			}
			if again := s.Snapshot(); !bytes.Equal(again, blob) {
				t.Errorf("restore then Snapshot changed the bytes (%d vs %d)", len(again), len(blob))
			}

			st := continueFrom(t, fx.cfg, blob)
			got, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(got, '\n'), wantStats) {
				t.Errorf("continuation Stats differ from %s.stats.json\ngot:  %s\nwant: %s", fx.name, got, wantStats)
			}
		})
	}
}

// readFixture returns the bytes of testdata/snapshot/<name>.snap.
func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "snapshot", name+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// reseal recomputes a snap blob's CRC32 trailer after an edit, so the
// edit reaches the field decoders instead of failing the checksum.
func reseal(b []byte) {
	if len(b) >= 4 {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	}
}

// snapshotOffsets walks a snapshot in the version 1 field order and
// returns the byte offset of each field a corruption case edits. It is
// a reading of the layout independent of the machine's own, so it
// checks the format as well: it must consume the payload exactly.
func snapshotOffsets(t *testing.T, blob []byte) map[string]int {
	t.Helper()
	r, err := snap.NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	end := len(blob) - 4
	at := map[string]int{}
	mark := func(name string) { at[name] = end - r.Len() }
	u64s := func(name string) {
		mark(name)
		for n := r.U32(); n > 0; n-- {
			r.U64()
		}
	}
	skip := func(n int) {
		for ; n > 0; n-- {
			r.U64()
		}
	}
	fault := func(prefix string) {
		skip(1) // injected
		u64s(prefix + "targets")
		skip(1) // bit flips
	}

	skip(1) // configuration fingerprint
	mark("cycle")
	skip(3) // cycle, seq, gid
	mark("halted")
	r.Bool()
	mark("pendingRecovery")
	r.Bool()
	mark("recoveryStart")
	skip(1)
	mark("lastCommitCycle")
	skip(3)  // lastCommitCycle, fetchPC, stallUntil
	r.Bool() // fetchHalt
	u64s("regs")
	skip(2) // committed next PC and its corrected count
	mark("pages")
	for i, n := 0, int(r.U32()); i < n; i++ {
		mark(fmt.Sprint("page", i))
		skip(1)
		mark(fmt.Sprint("page", i, ".len"))
		r.Bytes()
	}
	for p := 1; p < int(isa.NumPools); p++ { // every pool but PoolNone
		u64s(fmt.Sprint("pool", p))
	}

	mark("bimodal")
	r.Bytes()
	u64s("l1")
	mark("l2")
	r.Bytes()
	mark("meta")
	r.Bytes()
	mark("btb")
	for n := r.U32(); n > 0; n-- {
		r.Bool()
		skip(3) // tag, target, LRU
	}
	skip(1) // BTB age
	u64s("ras")
	mark("rasTop")
	r.U32()
	skip(8) // predictor statistics

	for _, level := range []string{"il1", "dl1", "l2cache"} {
		mark(level)
		for n := r.U32(); n > 0; n-- {
			r.Bool()
			r.Bool()
			skip(2) // tag, LRU
		}
		skip(4) // age, accesses, misses, writebacks
	}

	mark("hasInjector")
	if r.Bool() {
		mark("draws")
		skip(1)
		fault("injector.")
	}

	skip(20 + 8 + 3*3) // scalar, predictor and cache statistics
	fault("stats.")
	u64s("output")
	r.Bool() // halted
	r.Bool() // oracle live
	if err := r.Done(); err != nil {
		t.Fatalf("layout walk: %v", err)
	}
	return at
}

// TestRestoreRejectsResealedCorruption edits one field of a fixture,
// re-seals the checksum, and restores the result under a larger budget:
// every decode check must reject its field with ErrCorrupt, and a
// restored machine may not be older than its own history.
func TestRestoreRejectsResealedCorruption(t *testing.T) {
	put32 := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
	put64 := func(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
	cases := []struct {
		name, fixture string
		edit          func(b []byte, at map[string]int) []byte
		want          []string // substrings of the error
	}{
		{"invalid boolean", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { b[at["halted"]] = 2; return b },
			[]string{"invalid boolean"}},
		{"register count", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["regs"], 63); return b },
			[]string{"register file", "63", "want 64"}},
		{"page count", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["pages"], 1<<20); return b },
			[]string{"page count", "exceeds payload"}},
		{"page order", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte {
			// Write the one page twice.
			page := b[at["page0"] : at["page0.len"]+4+mem.PageSize]
			put32(b, at["pages"], 2)
			return slices.Insert(b, at["page0"], page...)
		}, []string{"not strictly increasing"}},
		{"page size", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["page0.len"], 8); return b },
			[]string{"has 8 bytes", "want 4096"}},
		{"pool units", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["pool1"], 99); return b },
			[]string{"99", "want 4"}},
		{"bimodal table", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["bimodal"], 63); return b },
			[]string{"bimodal table", "63", "want 64"}},
		{"L1 history", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["l1"], 3); return b },
			[]string{"L1 history", "3", "want 2"}},
		{"L2 pattern table", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["l2"], 63); return b },
			[]string{"L2 pattern table", "63", "want 64"}},
		{"meta table", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["meta"], 65); return b },
			[]string{"meta table", "65", "want 64"}},
		{"BTB", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["btb"], 31); return b },
			[]string{"BTB", "31", "want 32"}},
		{"RAS", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["ras"], 9); return b },
			[]string{"RAS", "9", "want 8"}},
		{"RAS top", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["rasTop"], 9); return b },
			[]string{"RAS top 9 out of range"}},
		{"cache lines", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["il1"], 33); return b },
			[]string{"il1", "33", "want 32"}},
		{"injector in snapshot only", "ss1-nofault", func(b []byte, at map[string]int) []byte { b[at["hasInjector"]] = 1; return b },
			[]string{"snapshot has injector state but config has no injector"}},
		{"injector in config only", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { b[at["hasInjector"]] = 0; return b },
			[]string{"config has an injector but snapshot has no injector state"}},
		{"injector draws", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put64(b, at["draws"], 1<<40); return b },
			[]string{"draw count", "exceeds restore limit"}},
		{"injector targets", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["injector.targets"], 5); return b },
			[]string{"injector target", "5", "want 4"}},
		{"fault targets", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["stats.targets"], 3); return b },
			[]string{"fault target", "3", "want 4"}},
		{"output length", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte { put32(b, at["output"], 1<<30); return b },
			[]string{"output length", "exceeds payload"}},
		{"last commit after cycle", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte {
			cycle := binary.LittleEndian.Uint64(b[at["cycle"]:])
			put64(b, at["lastCommitCycle"], cycle+1000)
			return b
		}, []string{"last commit", "after cycle"}},
		{"recovery starts after cycle", "ss2-fault5e-4", func(b []byte, at map[string]int) []byte {
			cycle := binary.LittleEndian.Uint64(b[at["cycle"]:])
			b[at["pendingRecovery"]] = 1
			put64(b, at["recoveryStart"], cycle+1000)
			return b
		}, []string{"recovery", "after cycle"}},
	}
	configs := map[string]ftsim.Config{}
	for _, fx := range snapshotFixtures {
		configs[fx.name] = fx.cfg
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := readFixture(t, tc.fixture)
			blob = tc.edit(blob, snapshotOffsets(t, blob))
			reseal(blob)
			cfg := configs[tc.fixture]
			cfg.MaxInsts = fixtureBudget
			m, err := ftsim.NewFromConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := m.Restore(blob)
			if err == nil {
				_, err := s.Run(context.Background())
				t.Fatalf("accepted; the resumed run returned %v with RecoveryCycles %d", err, s.Stats().RecoveryCycles)
			}
			if !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("Restore returned %v, want ErrCorrupt", err)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}
