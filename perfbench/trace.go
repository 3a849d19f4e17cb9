package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
)

// spanLog keeps the traced run's spans in memory; they are written once,
// at the end, as a Chrome trace. A nil *spanLog is a valid no-op, so the
// untraced run calls the same code with tracing off.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one timed interval at a layer boundary. Spans of one request
// or pass share a trace; parent is the index of the causing span, or -1.
type span struct {
	Name, Trace string
	Parent      int
	Start, End  time.Time
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil log).
func (l *spanLog) begin(parent int, trace, name string) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Trace: trace, Parent: parent, Start: time.Now()})
	return len(l.spans) - 1
}

// end closes span i.
func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	now := time.Now()
	l.mu.Lock()
	l.spans[i].End = now
	l.mu.Unlock()
}

// add records an already-finished span, e.g. one the program's own
// span recorder timed.
func (l *spanLog) add(parent int, trace, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Trace: trace, Parent: parent, Start: start, End: end})
	l.mu.Unlock()
}

// importRecorder copies the program's spans (serve job lifecycle,
// campaign shards) into the log, naming each layer+"."+name. recEpoch is
// the recorder's epoch in wall time (the benchmark opens an "epoch" span
// first to pin it); each span's parent is found through its trace ID.
func (l *spanLog) importRecorder(rec *obslog.SpanRecorder, recEpoch time.Time, layer string, parentOf func(trace string) int) {
	if l == nil || rec == nil {
		return
	}
	for _, ev := range rec.Events("") {
		if ev.Name == "epoch" {
			continue
		}
		start := recEpoch.Add(time.Duration(ev.StartUS) * time.Microsecond)
		l.add(parentOf(string(ev.Trace)), string(ev.Trace), layer+"."+ev.Name, start,
			start.Add(time.Duration(ev.DurUS)*time.Microsecond))
	}
}

// durations returns the closed spans' durations named name, in ms.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && !s.End.IsZero() {
			out = append(out, ms(s.End.Sub(s.Start)))
		}
	}
	return out
}

// total sums the closed spans named name.
func (l *spanLog) total(name string) time.Duration {
	var t float64
	for _, d := range l.durations(name) {
		t += d
	}
	return time.Duration(t * 1e6)
}

// selfTimes derives each span name's self time: the span's duration
// minus the part of it that its child spans cover (children may overlap,
// so their union is subtracted, clipped to the parent).
func (l *spanLog) selfTimes() map[string]time.Duration {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := map[int][]int{}
	for i, s := range l.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range l.spans {
		if s.End.IsZero() {
			continue
		}
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, k := range kids[i] {
			c := l.spans[k]
			a, b := c.Start, c.End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var curA, curB time.Time
		for j, v := range ivs {
			if j == 0 || v.a.After(curB) {
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
			} else if v.b.After(curB) {
				curB = v.b
			}
		}
		covered += curB.Sub(curA)
		out[s.Name] += s.End.Sub(s.Start) - covered
	}
	return out
}

// writeChrome writes the spans as a Chrome trace-event file (one thread
// per trace, complete "X" slices carrying their id and parent id in
// args) and checks the file with obs.ValidateChromeTrace.
func (l *spanLog) writeChrome(path string) error {
	if l == nil {
		return nil
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	epoch := l.epoch
	l.mu.Unlock()
	events := []event{{Name: "process_name", Ph: "M", Args: map[string]any{"name": "perfbench"}}}
	tids := map[string]int{}
	for i, s := range spans {
		if s.End.IsZero() {
			continue
		}
		tid, ok := tids[s.Trace]
		if !ok {
			tid = len(tids)
			tids[s.Trace] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Tid: tid,
				Args: map[string]any{"name": s.Trace}})
		}
		ts := s.Start.Sub(epoch).Microseconds()
		if ts < 0 {
			ts = 0
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: ts, Dur: s.End.Sub(s.Start).Microseconds(),
			Tid: tid, Args: map[string]any{"id": i, "parent": s.Parent}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := obs.ValidateChromeTrace(data); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
