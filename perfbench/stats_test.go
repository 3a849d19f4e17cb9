package main

import (
	"testing"
	"time"
)

func TestQuantileIsASample(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.99, 5}, {0, 1}, {0.2, 1}, {0.21, 2}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
}

// TestP99HasTenBeyond pins the sample-count rule the serve blocks rely
// on: in 1000 samples, p99 has exactly ten samples above it.
func TestP99HasTenBeyond(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i)
	}
	beyond := 0
	q := p99(s)
	for _, v := range s {
		if v > q {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("p99 of 1000 samples has %d beyond it, want 10", beyond)
	}
}

func TestMeterSelfTest(t *testing.T) {
	if err := meterSelfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLoopTimesFromDue checks that a stalled request delays the
// ones due behind it on the meter: the generator does not wait, and the
// wait for a busy worker counts against each request.
func TestOpenLoopTimesFromDue(t *testing.T) {
	gate := make(chan struct{}, 1)
	gate <- struct{}{}
	res := openLoop{Rate: 1000, N: 5}.run(func(int) error {
		<-gate // one request at a time
		time.Sleep(10 * time.Millisecond)
		gate <- struct{}{}
		return nil
	})
	if res.Failed != 0 || len(res.LatencyMs) != 5 {
		t.Fatalf("got %d failures, %d samples", res.Failed, len(res.LatencyMs))
	}
	// The last request is due 4 ms after the first but can only finish
	// after all five 10 ms services: at least 50-4 = 46 ms after its due
	// time.
	if max := quantile(res.LatencyMs, 1); max < 46 {
		t.Fatalf("slowest latency %.1f ms; queueing behind earlier requests was not counted", max)
	}
}

func TestSelfTimes(t *testing.T) {
	l := newSpanLog()
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	l.add(-1, "a", "parent", at(0), at(100))
	l.add(0, "a", "child", at(10), at(40))
	l.add(0, "a", "child", at(30), at(60)) // overlaps the first child
	l.add(0, "a", "late", at(90), at(120)) // runs past the parent's end
	self := l.selfTimes()
	if got := self["parent"]; got != 40*time.Millisecond {
		t.Errorf("parent self time %v, want 40ms (100 - union of [10,60] and [90,100])", got)
	}
	if got := self["child"]; got != 60*time.Millisecond {
		t.Errorf("child self time %v, want 60ms", got)
	}
}
