package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of samples: always one of
// the samples themselves, never an interpolated bucket bound. An empty
// sample returns 0.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// p99 is the nearest-rank 99th percentile. With at least 1000 samples it
// has at least ten samples beyond it; callers that need that guarantee
// check the sample count themselves.
func p99(samples []float64) float64 { return quantile(samples, 0.99) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// openLoop is the benchmark's latency meter. It issues n requests at a
// fixed rate regardless of how earlier ones fare (an open loop, so a
// stalled server still receives its load) and times every request from
// the moment it was due, not from when it was sent: a generator stall or
// a client-side wait for a connection counts against the latency.
type openLoop struct {
	Rate float64 // requests per second
	N    int
}

// loopResult holds one open-loop phase's raw samples.
type loopResult struct {
	LatencyMs  []float64 // due -> done, successful requests only
	ByIndex    []float64 // due -> done by request index; NaN for failures
	LatenessMs []float64 // due -> the request's goroutine began sending
	Failed     int       // requests whose do returned an error
}

// run issues the schedule; do performs request i and reports failure.
// It returns once every request has finished.
func (o openLoop) run(do func(i int) error) loopResult {
	res := loopResult{LatencyMs: make([]float64, 0, o.N), LatenessMs: make([]float64, 0, o.N),
		ByIndex: make([]float64, o.N)}
	interval := time.Duration(float64(time.Second) / o.Rate)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i := 0; i < o.N; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			late := time.Since(due)
			err := do(i)
			done := time.Now()
			mu.Lock()
			defer mu.Unlock()
			res.LatenessMs = append(res.LatenessMs, ms(late))
			res.ByIndex[i] = math.NaN()
			if err != nil {
				res.Failed++
			} else {
				res.ByIndex[i] = ms(done.Sub(due))
				res.LatencyMs = append(res.LatencyMs, res.ByIndex[i])
			}
		}(i, due)
	}
	wg.Wait()
	return res
}
