package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the traced run made: a client request or a call
// into one layer's public function. Spans of one body share Trace; Parent is
// the enclosing span (0 for a root).
type span struct {
	Trace  int    `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"` // e.g. the answer's source
}

// tracer keeps the spans of a traced run in memory until the run ends. A nil
// tracer records nothing, which is how untraced phases run.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; close it with end.
type open struct {
	t *tracer
	s span
}

// begin starts a span; on a nil tracer it returns an inert span.
func (t *tracer) begin(trace int, parent int64, name string) open {
	if t == nil {
		return open{}
	}
	return open{t: t, s: span{Trace: trace, ID: t.ids.Add(1), Parent: parent, Name: name, Start: int64(time.Since(t.t0))}}
}

// id is the span's identifier, to pass as the parent of its children.
func (o open) id() int64 { return o.s.ID }

func (o open) end(note string) {
	if o.t == nil {
		return
	}
	o.s.End, o.s.Note = int64(time.Since(o.t.t0)), note
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// add records a span whose start and end were measured elsewhere.
func (t *tracer) add(trace int, parent int64, name string, s sample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: t.ids.Add(1), Parent: parent, Name: name,
		Start: int64(s.from.Sub(t.t0)), End: int64(s.end.Sub(t.t0))})
}

// call runs f inside a span named name.
func (t *tracer) call(trace int, parent int64, name string, f func()) {
	o := t.begin(trace, parent, name)
	f()
	o.end("")
}

// request sends r on c inside a root span of r's body, noted with the source
// of the answer.
func (t *tracer) request(ctx context.Context, c *conn, r request) answer {
	o := t.begin(r.id, 0, "client.request")
	a := c.send(ctx, r)
	o.end(string(a.source))
	return a
}

// durationsMs returns the durations of every span named name, in ms; with
// notes given, only spans carrying one of those notes.
func (t *tracer) durationsMs(name string, notes ...string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if len(notes) > 0 && !contains(notes, s.Note) {
			continue
		}
		out = append(out, float64(s.End-s.Start)/1e6)
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// selfTime is the per-name aggregate of a trace: how many spans, their total
// duration, and their self time — each span's duration minus the part of it
// its children cover.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]selfTime)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			reach = max(reach, hi)
		}
		agg := out[s.Name]
		agg.Count++
		agg.TotalMs += float64(s.End-s.Start) / 1e6
		agg.SelfMs += float64(s.End-s.Start-covered) / 1e6
		out[s.Name] = agg
	}
	return out
}

// write saves the trace as one JSON document.
func (t *tracer) write(path string, fp fingerprint) error {
	doc := struct {
		Fingerprint fingerprint         `json:"fingerprint"`
		SelfTime    map[string]selfTime `json:"self_time"`
		Spans       []span              `json:"spans"`
	}{fp, t.selfTimes(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
