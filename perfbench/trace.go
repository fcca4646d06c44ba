package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory. Each request gets a
// root span; every layer call made on its behalf is a child of that
// root and carries the same request ID. A nil *tracer records nothing,
// so the untraced path pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

type span struct {
	Req, ID, Parent int64
	Name            string
	Start, End      time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reqSpan is one open request span.
type reqSpan struct {
	t     *tracer
	id    int64
	name  string
	start time.Duration
}

func (t *tracer) request(name string) *reqSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &reqSpan{t: t, id: id, name: name, start: time.Since(t.t0)}
}

func noop() {}

// child opens a layer span under r and returns the function that ends it.
func (r *reqSpan) child(name string) func() {
	if r == nil {
		return noop
	}
	start := time.Since(r.t.t0)
	return func() {
		end := time.Since(r.t.t0)
		r.t.mu.Lock()
		r.t.next++
		r.t.spans = append(r.t.spans, span{Req: r.id, ID: r.t.next, Parent: r.id, Name: name, Start: start, End: end})
		r.t.mu.Unlock()
	}
}

// end closes the request span itself.
func (r *reqSpan) end() {
	if r == nil {
		return
	}
	end := time.Since(r.t.t0)
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, span{Req: r.id, ID: r.id, Name: r.name, Start: r.start, End: end})
	r.t.mu.Unlock()
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name      string
	Count     int
	MedianMs  float64 // median span duration
	SelfMs    float64 // total self time
	SelfShare float64 // share of all self time in the trace
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerTime{}
	durations := map[string][]float64{}
	var total float64
	for _, s := range t.spans {
		self := s.End - s.Start - covered(children[s.ID])
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.SelfMs += ms(self)
		durations[s.Name] = append(durations[s.Name], ms(s.End-s.Start))
		total += ms(self)
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		r.MedianMs = median(durations[r.Name])
		if total > 0 {
			r.SelfShare = r.SelfMs / total
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, curStart, curEnd time.Duration
	open := false
	for _, s := range spans {
		if open && s.Start <= curEnd {
			curEnd = max(curEnd, s.End)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s.Start, s.End, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing or
// Perfetto), one lane per request.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.encodeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}

func (t *tracer) encodeChrome(w io.Writer) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Req,
			Args: map[string]int64{"req": s.Req, "id": s.ID, "parent": s.Parent},
		}
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
