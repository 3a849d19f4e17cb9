package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// golden holds the exact counts recorded with the benchmark: simulated
// statistics, fault outcomes, checkpoint bytes and report digests that
// depend only on the program's logic and the seed. Any drift from them
// fails the run, so a change meant only to speed the simulator up must
// leave every one identical.
type golden struct {
	// TuningSeed was used while the benchmark was written; HeldOutSeed
	// was not, and passes the same checks.
	TuningSeed  int64 `json:"tuning_seed"`
	HeldOutSeed int64 `json:"held_out_seed"`
	// GatesimCycles is gatesim.cycles: E18's kernel suite through the
	// three gate-level simulators at window 4 (seed-independent).
	GatesimCycles int64 `json:"gatesim_cycles"`
	// Seeds maps a recorded seed to its exact counts by workload.
	Seeds map[string]map[string]map[string]any `json:"seeds"`
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// recorded returns the exact counts stored for (seed, workload), or nil.
func (g *golden) recorded(seed int64, workload string) map[string]any {
	return g.Seeds[strconv.FormatInt(seed, 10)][workload]
}

// check compares counts computed for seed against the recorded ones, if
// that seed is recorded; it returns one message per drifted count.
func (g *golden) check(seed int64, workload string, got map[string]any) []string {
	want := g.recorded(seed, workload)
	if want == nil {
		return nil
	}
	var drift []string
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		// Both sides go through JSON, so numbers compare as float64
		// and digests as strings.
		w, _ := json.Marshal(want[k])
		v, _ := json.Marshal(normalize(got[k]))
		if string(w) != string(v) {
			drift = append(drift, fmt.Sprintf("seed %d %s %s = %s, recorded %s", seed, workload, k, v, w))
		}
	}
	return drift
}

// normalize turns integer counts into float64 so they marshal the same
// way as numbers read back from JSON.
func normalize(v any) any {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	}
	return v
}

// writeGolden recomputes every recorded count for the recorded seeds and
// prints the file; the benchmark's author reviews it and commits it as
// golden.json.
func writeGolden(w io.Writer, g *golden, dir string) error {
	out := golden{TuningSeed: g.TuningSeed, HeldOutSeed: g.HeldOutSeed, Seeds: map[string]map[string]map[string]any{}}
	cyc, err := gatesimCycles()
	if err != nil {
		return err
	}
	out.GatesimCycles = cyc
	for _, seed := range []int64{g.TuningSeed, g.HeldOutSeed} {
		eng, err := engineCounts(seed)
		if err != nil {
			return err
		}
		camp, err := campaignCounts(seed, dir)
		if err != nil {
			return err
		}
		out.Seeds[strconv.FormatInt(seed, 10)] = map[string]map[string]any{"engine": eng, "campaign": camp}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// diffCounts describes the first count that differs between a and b, or
// returns "".
func diffCounts(a, b map[string]any) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		x, _ := json.Marshal(normalize(a[k]))
		y, _ := json.Marshal(normalize(b[k]))
		if string(x) != string(y) {
			return fmt.Sprintf("%s = %s, was %s", k, y, x)
		}
	}
	return ""
}

// toFloat reads a count as a metric value.
func toFloat(v any) float64 {
	switch x := normalize(v).(type) {
	case float64:
		return x
	}
	return 0
}
