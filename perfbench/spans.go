package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary, recorded on the
// benchmark's side of that boundary. Spans of one request share Req.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, which is how the untraced runs call the same code.
type Tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span; nil when t is nil.
func (t *Tracer) Begin(name string, parent, req int64) *Span {
	if t == nil {
		return nil
	}
	return &Span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: time.Since(t.t0)}
}

// BeginAt opens a span whose start was observed earlier, such as an
// open-loop request's due time.
func (t *Tracer) BeginAt(name string, at time.Time, parent, req int64) *Span {
	sp := t.Begin(name, parent, req)
	if sp != nil {
		sp.Start = at.Sub(t.t0)
	}
	return sp
}

// End closes sp and keeps it.
func (t *Tracer) End(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	sp.End = time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, *sp)
	t.mu.Unlock()
}

// NewReq mints a request ID.
func (t *Tracer) NewReq() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// id returns the span ID, 0 for a nil span.
func (sp *Span) id() int64 {
	if sp == nil {
		return 0
	}
	return sp.ID
}

// Spans returns a copy of the spans recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTime is the part of parent's interval that none of its children
// covers: the span minus the union of its children, each clipped to the
// parent. Overlapping children count once.
func selfTime(parent Span, children []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.Dur() - covered
}

// SpanSummary aggregates the spans of one name.
type SpanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Ms   float64 `json:"p50_ms"`
}

// summarize groups spans by name with total and self time.
func summarize(spans []Span) []SpanSummary {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := make(map[string]*SpanSummary)
	durs := make(map[string][]float64)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &SpanSummary{Name: s.Name}
			by[s.Name] = a
		}
		a.Count++
		a.TotalMs += ms(s.Dur())
		a.SelfMs += ms(selfTime(s, kids[s.ID]))
		durs[s.Name] = append(durs[s.Name], ms(s.Dur()))
	}
	out := make([]SpanSummary, 0, len(by))
	for name, a := range by {
		a.P50Ms = median(durs[name])
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
