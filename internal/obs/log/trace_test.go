package obslog_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
)

func TestDeriveTraceIDStableAndDistinct(t *testing.T) {
	a := obslog.DeriveTraceID("job-000001")
	if a != obslog.DeriveTraceID("job-000001") {
		t.Error("same job ID derived different trace IDs")
	}
	if len(a) != 16 {
		t.Errorf("trace ID %q is not 16 chars", a)
	}
	for _, c := range string(a) {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Errorf("trace ID %q has non-hex char %q", a, c)
		}
	}
	if a == obslog.DeriveTraceID("job-000002") {
		t.Error("adjacent job IDs collided")
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := t.Context()
	if obslog.TraceIDFrom(ctx) != "" || obslog.RecorderFrom(ctx) != nil || obslog.LoggerFrom(ctx) != nil {
		t.Error("empty context not zero-valued")
	}
	id := obslog.DeriveTraceID("job-000042")
	rec := obslog.NewSpanRecorder(obslog.SpanOptions{})
	lg := obslog.New(&bytes.Buffer{}, obslog.Options{})
	ctx = obslog.WithTraceID(ctx, id)
	ctx = obslog.WithRecorder(ctx, rec)
	ctx = obslog.WithLogger(ctx, lg)
	if obslog.TraceIDFrom(ctx) != id {
		t.Error("trace ID lost in context")
	}
	if obslog.RecorderFrom(ctx) != rec {
		t.Error("recorder lost in context")
	}
	if obslog.LoggerFrom(ctx) != lg {
		t.Error("logger lost in context")
	}
}

// fakeClock is a deterministic, advancing clock for span tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestSpanRecording(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	rec := obslog.NewSpanRecorder(obslog.SpanOptions{Clock: clk.Now, Metrics: reg})
	id := obslog.DeriveTraceID("job-000001")

	sp := rec.Start(id, "queue", "")
	clk.Advance(2 * time.Millisecond)
	sp.End()
	sp = rec.Start(id, "run", "shards=4")
	clk.Advance(30 * time.Millisecond)
	sp.End()

	events := rec.Events(id)
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Name != "queue" || events[0].StartUS != 0 || events[0].DurUS != 2000 {
		t.Errorf("queue span wrong: %+v", events[0])
	}
	if events[1].Name != "run" || events[1].StartUS != 2000 || events[1].DurUS != 30000 {
		t.Errorf("run span wrong: %+v", events[1])
	}
	if events[1].Detail != "shards=4" {
		t.Errorf("detail lost: %+v", events[1])
	}

	// Each span observed its histogram.
	snap := reg.Peek(0)
	hv, ok := snap.Histograms["span.run_ms"]
	if !ok || hv.Count != 1 {
		t.Errorf("span.run_ms histogram missing or wrong: %+v (ok=%v)", hv, ok)
	}
}

func TestSpanFilterByTrace(t *testing.T) {
	clk := newFakeClock()
	rec := obslog.NewSpanRecorder(obslog.SpanOptions{Clock: clk.Now})
	a := obslog.DeriveTraceID("job-a")
	b := obslog.DeriveTraceID("job-b")
	rec.Start(a, "run", "").End()
	rec.Start(b, "run", "").End()
	if got := len(rec.Events(a)); got != 1 {
		t.Errorf("filter by trace a: %d events, want 1", got)
	}
	if got := len(rec.Events("")); got != 2 {
		t.Errorf("all traces: %d events, want 2", got)
	}
}

func TestSpanCapacityBound(t *testing.T) {
	clk := newFakeClock()
	rec := obslog.NewSpanRecorder(obslog.SpanOptions{Clock: clk.Now, Cap: 3})
	id := obslog.DeriveTraceID("job-x")
	for i := 0; i < 5; i++ {
		rec.Start(id, "s", "").End()
	}
	if got := len(rec.Events(id)); got != 3 {
		t.Errorf("retained %d spans, want cap 3", got)
	}
	if got := rec.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var rec *obslog.SpanRecorder
	sp := rec.Start("t", "run", "") // must not panic
	sp.End()
	if rec.Events("") != nil {
		t.Error("nil recorder returned events")
	}
	if rec.Dropped() != 0 {
		t.Error("nil recorder dropped != 0")
	}
}

func TestSpanDebugLogCarriesTrace(t *testing.T) {
	var buf bytes.Buffer
	lg := obslog.New(&buf, obslog.Options{Level: obslog.LevelDebug})
	clk := newFakeClock()
	rec := obslog.NewSpanRecorder(obslog.SpanOptions{Clock: clk.Now, Logger: lg})
	id := obslog.DeriveTraceID("job-000007")
	sp := rec.Start(id, "checkpoint", "shard=3")
	clk.Advance(time.Millisecond)
	sp.End()
	line := buf.String()
	if !strings.Contains(line, `"trace":"`+string(id)+`"`) {
		t.Errorf("span log line missing trace: %s", line)
	}
	if !strings.Contains(line, `"span":"checkpoint"`) {
		t.Errorf("span log line missing span name: %s", line)
	}
}

func TestChromeTraceExportValidates(t *testing.T) {
	clk := newFakeClock()
	rec := obslog.NewSpanRecorder(obslog.SpanOptions{Clock: clk.Now})
	a := obslog.DeriveTraceID("job-000001")
	b := obslog.DeriveTraceID("job-000002")
	sp := rec.Start(a, "queue", "")
	clk.Advance(time.Millisecond)
	sp.End()
	sp = rec.Start(a, "run", "shards=2")
	sp2 := rec.Start(b, "queue", "")
	clk.Advance(5 * time.Millisecond)
	sp.End()
	sp2.End()

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, ""); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("exported trace fails obs validator: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"ultrascalar jobs"`) {
		t.Error("process_name metadata missing")
	}
	if !strings.Contains(out, "trace "+string(a)) || !strings.Contains(out, "trace "+string(b)) {
		t.Error("per-trace thread names missing")
	}

	// The exact bytes are pinned: the span exporter shares obs's
	// encoder, and this fixed span set must keep exporting identically.
	if sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); sum != "edbc5f1d56d7c11555db9e138792c547803c58c075fea09b2be967a87bb00401" {
		t.Errorf("span export bytes changed (sha256 %s):\n%s", sum, out)
	}

	// Determinism: same spans, same bytes.
	var buf2 bytes.Buffer
	if err := rec.WriteChromeTrace(&buf2, ""); err != nil {
		t.Fatalf("second export: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two exports of the same recorder differ")
	}

	// Single-trace export filters.
	var buf3 bytes.Buffer
	if err := rec.WriteChromeTrace(&buf3, b); err != nil {
		t.Fatalf("filtered export: %v", err)
	}
	if strings.Contains(buf3.String(), "trace "+string(a)) {
		t.Error("filtered export leaked other trace")
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	rec := obslog.NewSpanRecorder(obslog.SpanOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := obslog.DeriveTraceID("job-" + string(rune('a'+g)))
			for i := 0; i < 100; i++ {
				rec.Start(id, "s", "").End()
			}
		}(g)
	}
	wg.Wait()
	if got := len(rec.Events("")); got != 800 {
		t.Errorf("got %d spans, want 800", got)
	}
}
