package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer boundary. Spans of one job share a trace ID; the
// job's root span has parent 0.
type span struct {
	ID, Parent int
	Trace      int64
	Name       string
	Start, End time.Duration // since the tracer's epoch
}

// layer is the module a span times: the name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	epoch  time.Time
	traces atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace mints the trace ID of one job.
func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	return t.traces.Add(1)
}

// begin opens a span now and returns its ID.
func (t *tracer) begin(trace int64, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose times were measured elsewhere, such as a
// trial rebuilt from its end and elapsed time. A start before the
// parent's is cut to the parent's: that part of the work happened
// before the benchmark could see it.
func (t *tracer) add(trace int64, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s, e := start.Sub(t.epoch), end.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.spans[parent-1].Start; s < p {
		s = p
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: s, End: max(s, e)})
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes attributes every instant of each job to exactly one of its
// spans: the deepest span covering that instant, the latest-started one
// among spans of equal depth. A span's self time is its share, so the
// self times of one job sum to its root span's duration even where
// sibling spans overlap, as parallel trials do. It returns the self
// time of every span, by span ID.
func selfTimes(spans []span) map[int]time.Duration {
	byTrace := make(map[int64][]span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, ss := range byTrace {
		depth := make(map[int]int, len(ss))
		parent := make(map[int]int, len(ss))
		for _, s := range ss {
			parent[s.ID] = s.Parent
		}
		for _, s := range ss {
			d := 0
			for p := s.Parent; p != 0; p = parent[p] {
				d++
			}
			depth[s.ID] = d
		}
		var cuts []time.Duration
		for _, s := range ss {
			cuts = append(cuts, s.Start, s.End)
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			best := -1
			for k, s := range ss {
				if s.Start > a || s.End < b {
					continue
				}
				if best < 0 || depth[s.ID] > depth[ss[best].ID] ||
					depth[s.ID] == depth[ss[best].ID] && s.Start > ss[best].Start {
					best = k
				}
			}
			if best >= 0 {
				out[ss[best].ID] += b - a
			}
		}
	}
	return out
}

// printSelfTimes writes each layer's self time per job and its share of
// all jobs' time.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	byLayer := make(map[string]time.Duration)
	var total time.Duration
	jobs := 0
	for _, s := range spans {
		byLayer[s.layer()] += self[s.ID]
		if s.Parent == 0 {
			total += s.End - s.Start
			jobs++
		}
	}
	if jobs == 0 || total <= 0 {
		return
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	slices.SortFunc(layers, func(a, b string) int { return cmp.Compare(byLayer[b], byLayer[a]) })
	fmt.Fprintf(w, "self time by layer over %d traced jobs:\n", jobs)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %10.3f ms/job %6.1f%%\n", l,
			byLayer[l].Seconds()*1e3/float64(jobs), 100*float64(byLayer[l])/float64(total))
	}
}

// writeChromeTrace writes spans as Chrome trace-event JSON, one track
// per job.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Trace,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
