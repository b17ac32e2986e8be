package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Start and End are nanoseconds since the tracer's epoch;
// Parent is 0 for a root span; Job groups the spans of one job or
// request.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Dur is the span's wall duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(name string, parent, job int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Rename relabels span id; used where the layer is known only after
// the call returns (a submission is a hit or a miss by its response).
func (t *Tracer) Rename(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// Dur is span id's duration in nanoseconds.
func (t *Tracer) Dur(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Dur()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as a JSON array.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children covers. Children are
// clipped to the parent and may overlap one another (concurrent
// callers), so the union, not the sum, is subtracted.
func SelfTimes(spans []Span) map[int]int64 {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to parent.
func covered(parent Span, children []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// perJob sums self time by span name within each job and returns, per
// name, one sample per job in nanoseconds (a job that releases twice
// yields one release sample). Spans outside any job are skipped.
func perJob(spans []Span) map[string][]float64 {
	self := SelfTimes(spans)
	type key struct {
		job  int
		name string
	}
	sums := map[key]int64{}
	var order []key
	for _, s := range spans {
		if s.Job == 0 {
			continue
		}
		k := key{s.Job, s.Name}
		if _, ok := sums[k]; !ok {
			order = append(order, k)
		}
		sums[k] += self[s.ID]
	}
	out := map[string][]float64{}
	for _, k := range order {
		out[k.name] = append(out[k.name], float64(sums[k]))
	}
	return out
}

// unattributed is the share of the traced work that no layer span
// accounts for: the self time of the benchmark's own non-root spans
// (names starting "bench.") over the summed duration of the root's
// children. The root's own gaps between passes are not work.
func unattributed(spans []Span, root int) float64 {
	self := SelfTimes(spans)
	var bench, total int64
	for _, s := range spans {
		if s.Parent == root {
			total += s.Dur()
		}
		if s.ID != root && s.Parent != 0 && strings.HasPrefix(s.Name, "bench.") && within(spans, s, root) {
			bench += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(bench) / float64(total)
}

// within reports whether s descends from root.
func within(spans []Span, s Span, root int) bool {
	for p := s.Parent; p != 0; p = spans[p-1].Parent {
		if p == root {
			return true
		}
	}
	return false
}
