package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/tables.txt from the current code")

// renderAll renders, through the Print functions, every simulation
// grid `ftexp -exp all` runs, with ftexp's benchmark and sweep
// arguments.
func renderAll(t *testing.T, opt Options) string {
	t.Helper()
	var sb strings.Builder
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	t2, err := Table2(opt)
	must(err)
	PrintTable2(&sb, t2)
	f5, err := Fig5(opt)
	must(err)
	PrintFig5(&sb, f5)
	f6, err := Fig6("fpppp", opt)
	must(err)
	PrintFig6(&sb, "fpppp", f6)
	sens, err := Sensitivity(opt)
	must(err)
	PrintSensitivity(&sb, sens)
	cs, err := AblateCoSchedule([]string{"gcc", "fpppp", "swim"}, opt)
	must(err)
	PrintCoSchedule(&sb, cs)
	cw, err := AblateCommitWidth("fpppp", []int{4, 8, 16, 32}, opt)
	must(err)
	PrintCommitWidth(&sb, "fpppp", cw)
	rg, err := AblateRecoveryGrain("fpppp", 1000, []int{0, 200, 2000}, opt)
	must(err)
	PrintRecoveryGrain(&sb, "fpppp", 1000, rg)
	return sb.String()
}

// TestTablesGolden pins every rendered evaluation table, at a small
// budget and campaign seed 1, to testdata/golden/tables.txt. A change
// to how grids reach the simulator that moves a single printed digit
// fails here with a line diff. Run with -update to regenerate after an
// intentional change of results.
func TestTablesGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden", "tables.txt")
	got := renderAll(t, Options{MaxInsts: 5_000})
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if d := lineDiff(string(want), got); d != "" {
		t.Errorf("rendered tables differ from %s (-want +got):\n%s", path, d)
	}
}

// lineDiff lists the lines at which want and got differ, or returns ""
// when they are equal.
func lineDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&sb, "%4d - %s\n%4d + %s\n", i+1, wl, i+1, gl)
		}
	}
	return sb.String()
}
