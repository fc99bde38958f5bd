package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// metricDef is one reported number. The two catalogues below are the
// benchmark's contract: BENCHMARK.json lists the same names, units,
// directions and bounds, and the smoke test holds them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator sees, measured with tracing
// off. Bound is the share of the parent's median by which a metric may
// worsen before a change counts as a regression. The timings and the
// peak RSS carry the widest bound the benchmark allows because their
// spread across runs of a 20 s window on a shared 2-CPU host reaches
// 5-12% (README.md, Measured runs); heap allocation is steadier.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"trials_per_s", "trials/s", "higher", 0.25},
	{"sim_minsts_per_s", "Minsts/s", "higher", 0.25},
	{"job_p50_s", "s", "lower", 0.25},
	{"cpu_ms_per_trial", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"alloc_mb_per_trial", "MB", "lower", 0.1},
}

// perLayer comes from the traced run and the layer probes. README.md
// maps each one to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{Name: "workload.build_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "workload.build_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "asm.assemble_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cpu.load_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cpu.reset_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cpu.minsts_per_s.ss1", Unit: "Minsts/s", Better: "higher"},
	{Name: "cpu.minsts_per_s.static2", Unit: "Minsts/s", Better: "higher"},
	{Name: "cpu.minsts_per_s.ss2", Unit: "Minsts/s", Better: "higher"},
	{Name: "cpu.minsts_per_s.ss3", Unit: "Minsts/s", Better: "higher"},
	{Name: "cpu.minsts_per_s.ss2_faults", Unit: "Minsts/s", Better: "higher"},
	{Name: "cpu.minsts_per_s.ss3_faults", Unit: "Minsts/s", Better: "higher"},
	{Name: "cpu.ns_per_sim_cycle.ss1", Unit: "ns", Better: "lower"},
	{Name: "cpu.ns_per_sim_cycle.ss3", Unit: "ns", Better: "lower"},
	{Name: "cpu.alloc_kb_per_run", Unit: "KB", Better: "lower"},
	{Name: "campaign.trial_s_p50", Unit: "s", Better: "lower"},
	{Name: "campaign.trial_s_p90", Unit: "s", Better: "lower"},
	{Name: "campaign.busy_frac", Unit: "fraction", Better: "higher"},
	{Name: "campaign.ckpt_syncs_per_trial", Unit: "count", Better: "lower"},
	{Name: "campaign.ckpt_kb_per_trial", Unit: "KB", Better: "lower"},
	{Name: "api.parse_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "api.request_kb", Unit: "KB", Better: "lower"},
	{Name: "api.stats_kb_per_trial", Unit: "KB", Better: "lower"},
	{Name: "api.stats_decode_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.submit_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.status_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.http_requests_per_job", Unit: "count", Better: "lower"},
	{Name: "server.non_trial_frac", Unit: "fraction", Better: "lower"},
	{Name: "server.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sse.first_event_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sse.done_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sse.events_per_job", Unit: "count", Better: "lower"},
	{Name: "sse.dropped_intervals", Unit: "count", Better: "lower"},
	{Name: "sse.evictions", Unit: "count", Better: "lower"},
	{Name: "coord.shard_s_mean", Unit: "s", Better: "lower"},
	{Name: "coord.shards_per_job", Unit: "count", Better: "lower"},
	{Name: "coord.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "go.gc_cycles_per_trial", Unit: "count", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "fraction", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}

// sample is a named bag of observations gathered during a traced run,
// safe for concurrent clients. A nil *sample discards observations.
type sample struct {
	mu   sync.Mutex
	vals map[string][]float64
}

func newSample() *sample { return &sample{vals: make(map[string][]float64)} }

func (s *sample) add(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.vals[key] = append(s.vals[key], v)
	s.mu.Unlock()
}

func (s *sample) get(key string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[key]
}

func (s *sample) sum(key string) float64 {
	t := 0.0
	for _, v := range s.get(key) {
		t += v
	}
	return t
}

func (s *sample) mean(key string) float64 {
	if n := len(s.get(key)); n > 0 {
		return s.sum(key) / float64(n)
	}
	return math.NaN()
}

func (s *sample) pct(key string, p float64) float64 { return percentile(s.get(key), p) }

// percentile is the nearest-rank p-th percentile (0 < p <= 100); NaN for
// no data.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// so run-to-run spreads read the same here as in any script that checks
// them. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	ld := len(d)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// host identifies the machine and build a result came from, so results
// of different hosts are never compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
}

func fingerprint() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Revision:   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

// sameMachine reports whether two results ran on the same kind of host;
// revisions may differ, that is what compare is for.
func (h host) sameMachine(o host) bool {
	return h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS &&
		h.GoVersion == o.GoVersion && h.CPUModel == o.CPUModel
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// resetPeakRSS restarts the process's VmHWM high-water mark.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// parseExposition sums the samples of a Prometheus text exposition by
// series name, across label sets: ftsimd_http_requests_total is the
// total over every route and code.
func parseExposition(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			_, rest, ok = strings.Cut(line[i:], "} ")
		}
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			out[name] += v
		}
	}
	return out
}
