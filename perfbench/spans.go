package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Parent is the id of
// the span that caused it (0 for a root); Req groups the spans of one
// client request (0 when the work serves no single request, such as a
// batch carrying several keys' messages).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // mono clock
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. It holds at
// most limit spans: a traced run samples which requests it records (see
// sampled), and the cap bounds memory if sampling is too generous.
type spanRecorder struct {
	limit   int
	mu      sync.Mutex
	spans   []span
	next    int64
	dropped int64
}

func newSpanRecorder(limit int) *spanRecorder {
	return &spanRecorder{limit: limit}
}

// epoch is the origin of mono, the clock every span and latency reads.
var epoch = time.Now()

// mono returns nanoseconds since epoch on the monotonic clock.
func mono() int64 { return int64(time.Since(epoch)) }

// add records a finished span and returns its id, or 0 when the
// recorder is nil or full.
func (r *spanRecorder) add(name string, parent, req, start, end int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped++
		return 0
	}
	r.next++
	r.spans = append(r.spans, span{ID: r.next, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return r.next
}

// reserve allocates an id for a span whose children finish before it
// does; the parent is then recorded with put under that id.
func (r *spanRecorder) reserve() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		return 0
	}
	r.next++
	return r.next
}

// put records a span under an id from reserve.
func (r *spanRecorder) put(s span) {
	if r == nil || s.ID == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// sampled decides whether the n-th unit of work at a boundary records
// spans: one in every spanEvery, so a traced run's span volume stays
// bounded while covering the whole run.
func sampled(n int64) bool { return n%spanEvery == 0 }

const spanEvery = 64

// write stores the spans as JSON lines, once, at the end of the run.
func (r *spanRecorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	Count  int   `json:"count"`
	Total  int64 `json:"total_ns"`
	SelfNs int64 `json:"self_ns"`
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval covered by its children's
// intervals (overlapping children are counted once, and child time
// outside the parent is ignored).
func selfTimes(spans []span) map[string]spanTotals {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.SelfNs += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = t
	}
	return out
}

// covered returns the length of the union of kids' intervals clipped to
// parent's interval.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// selfNsPer returns the mean self time of the spans named name, or 0
// when none were recorded.
func selfNsPer(t map[string]spanTotals, name string) float64 {
	s := t[name]
	if s.Count == 0 {
		return 0
	}
	return float64(s.SelfNs) / float64(s.Count)
}
