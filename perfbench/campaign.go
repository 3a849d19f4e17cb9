package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ultrascalar/internal/exp"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
)

// The campaign workload: the full 63-shard fault campaign with golden
// detection, checkpointed after every shard as usfault -checkpoint runs
// it. The fleet workload distributes the same campaign.
const (
	campaignWindow = 64
	campaignTrials = 64
)

// outcomeKinds names the fault outcomes as fault.outcome.<kind> reports
// them.
var outcomeKinds = []string{"vacuous", "masked", "recovered", "sdc", "crash", "recovery-failed"}

func campaignConfig(seed int64) exp.FaultCampaignConfig {
	return exp.FaultCampaignConfig{Seed: seed, Window: campaignWindow, N: campaignTrials, Detect: fault.DetectGolden}
}

// reportDigest renders a campaign report exactly as usfault and usserve
// do (resumed-shard count zeroed) and returns its SHA-256.
func reportDigest(rep *fault.Report) (string, error) {
	rep.Resumed = 0
	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

// outcomeCounts totals a report's cells: points and each outcome.
func outcomeCounts(rep *fault.Report) map[string]any {
	var points int64
	var kinds [6]int64 // in outcomeKinds order
	for _, cell := range rep.Cells {
		points += int64(cell.Points)
		for i, v := range []int{cell.Vacuous, cell.Masked, cell.Recovered, cell.SDC, cell.Crashed, cell.RecFailed} {
			kinds[i] += int64(v)
		}
	}
	c := map[string]any{"fault.points": points}
	for i, k := range outcomeKinds {
		c["fault.outcome."+k] = kinds[i]
	}
	return c
}

// campaignRun is one checkpointed campaign and what its progress
// callbacks observed.
type campaignRun struct {
	rep       *fault.Report
	shardsMs  []float64 // time between consecutive shard completions
	ckptBytes int64     // checkpoint size at each completion, summed
	ckptWrite int64
}

// runCheckpointed runs the campaign with its checkpoint at path (removed
// afterwards); ctx may carry a span recorder.
func runCheckpointed(ctx context.Context, seed int64, path string) (*campaignRun, error) {
	r := &campaignRun{}
	cfg := campaignConfig(seed)
	cfg.Checkpoint = path
	var last time.Time
	var statErr error
	cfg.Progress = func(done, total int) {
		now := time.Now()
		if done > 0 {
			r.shardsMs = append(r.shardsMs, ms(now.Sub(last)))
			st, err := os.Stat(path)
			if err != nil {
				statErr = err
			} else {
				r.ckptBytes += st.Size()
				r.ckptWrite++
			}
		}
		last = now
	}
	defer os.Remove(path)
	rep, err := exp.RunFaultCampaignCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if statErr != nil {
		return nil, statErr
	}
	r.rep = rep
	return r, nil
}

// campaignCounts computes one seed's exact campaign counts: outcomes,
// checkpoint bytes and the report digest.
func campaignCounts(seed int64, dir string) (map[string]any, error) {
	run, err := runCheckpointed(context.Background(), seed, filepath.Join(dir, fmt.Sprintf("golden-%d.ckpt", seed)))
	if err != nil {
		return nil, err
	}
	return run.counts()
}

// counts are the run's exact counts, digest included.
func (r *campaignRun) counts() (map[string]any, error) {
	c := outcomeCounts(r.rep)
	c["exp.ckpt_bytes"] = r.ckptBytes
	d, err := reportDigest(r.rep)
	c["digest"] = d
	return c, err
}

// directDigest runs the campaign without a checkpoint: the reference
// the checkpointed and distributed runs must match byte for byte.
func directDigest(seed int64) (string, error) {
	rep, err := exp.RunFaultCampaign(campaignConfig(seed))
	if err != nil {
		return "", err
	}
	return reportDigest(rep)
}

func runCampaign(e *env) (*outcome, error) {
	o := &outcome{}
	want, stop, err := timedSetup(o, 9, func() (string, func(), error) {
		d, err := directDigest(e.seed)
		return d, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer stop()

	var first map[string]any
	var runs []*campaignRun
	reg := obs.NewRegistry() // the pool's metrics, traced passes only
	pass := func(i int, sp *spanLog) error {
		ctx := context.Background()
		var rec *obslog.SpanRecorder
		var recEpoch time.Time
		if sp != nil {
			rec = obslog.NewSpanRecorder(obslog.SpanOptions{})
			recEpoch = time.Now()
			rec.Start("", "epoch", "").End()
			ctx = obslog.WithRecorder(ctx, rec)
			exp.SetPoolMetrics(reg)
			defer exp.SetPoolMetrics(nil)
		}
		s := sp.begin(-1, fmt.Sprintf("pass%d", i), "exp.campaign")
		run, err := runCheckpointed(ctx, e.seed, filepath.Join(e.work, fmt.Sprintf("pass%d.ckpt", i)))
		sp.end(s)
		if err != nil {
			return err
		}
		sp.importRecorder(rec, recEpoch, "exp", func(string) int { return s })
		o.attempted += int64(len(run.rep.Cells))
		c, err := run.counts()
		if err != nil {
			return err
		}
		if c["digest"] != want {
			o.fail("pass %d: checkpointed report digest %s, direct %s", i, c["digest"], want)
		}
		if first == nil {
			first = c
			for _, d := range e.golden.check(e.seed, "campaign", c) {
				o.fail("drift: %s", d)
			}
		} else if d := diffCounts(first, c); d != "" {
			o.fail("pass %d drifted from pass 0: %s", i, d)
		}
		runs = append(runs, run)
		return nil
	}
	if !e.trace {
		if err := passes(e, o, func(i int) error { return pass(i, nil) }); err != nil {
			return nil, err
		}
		for _, r := range runs {
			o.opsMs = append(o.opsMs, r.shardsMs...)
		}
		return o, nil
	}

	if err := tracedPasses(e, "campaign", o, pass); err != nil {
		return nil, err
	}
	var shards []float64
	for _, r := range runs {
		shards = append(shards, r.shardsMs...)
	}
	e.layer["exp.shard_p50_ms"] = median(shards)
	e.layer["exp.shard_p99_ms"] = p99(shards)
	e.layer["exp.ckpt_writes"] = float64(runs[0].ckptWrite)
	for k, v := range first {
		if k != "digest" {
			e.layer[k] = toFloat(v)
		}
	}
	poolLayer(e, reg, o.wall)
	// The checkpoint's share: the same campaign without its checkpoint
	// path, as many passes as the traced half made.
	var direct []float64
	for range o.wall {
		t := time.Now()
		if _, err := exp.RunFaultCampaign(campaignConfig(e.seed)); err != nil {
			return nil, err
		}
		direct = append(direct, time.Since(t).Seconds())
	}
	e.layer["exp.ckpt_share"] = 1 - median(direct)/median(o.wall)
	for _, seed := range []int64{e.golden.TuningSeed, e.golden.HeldOutSeed} {
		c, err := campaignCounts(seed, e.work)
		if err != nil {
			return nil, err
		}
		for _, d := range e.golden.check(seed, "campaign", c) {
			o.fail("drift: %s", d)
		}
	}
	return o, nil
}

// poolLayer reports the exp worker pool's telemetry: busy share (task
// time over workers x wall time), the task-time p99 and the deepest
// queue seen. The pool exports histograms only, so these two are
// bucket estimates: the p99 interpolates within its bucket, and the
// queue depth is the upper bound of the highest non-empty bucket.
func poolLayer(e *env, reg *obs.Registry, wall []float64) {
	snap := reg.Peek(0)
	task := snap.Histograms["exp.task_ms"]
	var total float64
	for _, w := range wall {
		total += w
	}
	if workers := snap.Gauges["exp.workers"]; workers > 0 && total > 0 {
		e.layer["exp.pool_busy_frac"] = task.Sum / 1000 / (workers * total)
	}
	e.layer["exp.task_p99_ms"] = task.Quantile(0.99)
	depth := snap.Histograms["exp.queue_depth"]
	for _, b := range depth.Buckets {
		if b.Count > 0 && !math.IsInf(b.Le, 1) {
			e.layer["exp.queue_depth_max"] = b.Le
		}
	}
}
