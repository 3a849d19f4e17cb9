// Command usrepro regenerates the paper's entire evaluation in one run:
// every figure and table (E1-E20), printed as a single report. This is the
// one-command reproduction entry point; see EXPERIMENTS.md for the
// paper-versus-measured record.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ultrascalar/internal/exp"
	"ultrascalar/internal/profiling"
	"ultrascalar/internal/vlsi"
)

func main() {
	nMax := flag.Int("nmax", 4096, "largest station count in the sweeps (power of 4)")
	workers := flag.Int("workers", 0, "experiment sweep goroutines (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()
	stopProfiling, err := profiling.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "usrepro:", err)
		os.Exit(1)
	}
	defer stopProfiling()
	exp.SetSweepWorkers(*workers)
	start := time.Now() //uslint:allow detorder -- progress timing only; measured results are cycle counts
	if err := reproduce(os.Stdout, *nMax); err != nil {
		fmt.Fprintln(os.Stderr, "usrepro:", err)
		stopProfiling()
		os.Exit(1)
	}
	fmt.Printf("\nreproduced all experiments in %.1fs\n", time.Since(start).Seconds())
}

// reproduce writes the whole report, E1-E20, to w as each experiment
// finishes. Everything it writes is deterministic; the timing line main
// appends is not part of it.
func reproduce(w io.Writer, nMax int) error {
	t := vlsi.Tech035()
	fmt.Fprintln(w, "Reproduction of: A Comparison of Scalable Superscalar Processors")
	fmt.Fprintln(w, "(Kuszmaul, Henry, Loh — SPAA 1999)")
	for _, e := range []struct {
		id, title string
		run       func() (string, error)
	}{
		{"E1", "Figure 3 timing diagram", exp.Figure3Report},
		{"E2", "Figure 11 complexity table", func() (string, error) { return exp.Figure11Report(32, 32, 64, nMax, t) }},
		{"E3", "Figure 12 empirical layouts", func() (string, error) { return exp.Figure12Report(t) }},
		{"E4", "X(n) recurrence cases", func() (string, error) { return exp.UltraIRecurrenceReport(32, 32, 64, nMax, t) }},
		{"E5", "Ultrascalar II implementations", func() (string, error) { return exp.Ultra2ScalingReport(32, 32, 64, 1024, t) }},
		{"E6", "optimal cluster size", func() (string, error) { return exp.ClusterSweepReport(4096, 32, t) }},
		{"E7", "three-dimensional packaging", func() (string, error) { return exp.ThreeDReport(32, []int{256, 1024, 4096}), nil }},
		{"E8", "IPC of the three processors", func() (string, error) { return exp.IPCReport(16, 4) }},
		{"E9", "operand locality", func() (string, error) { return exp.LocalityReport(64) }},
		{"E10", "netlist depths", func() (string, error) { return exp.CircuitDepthsReport(8, 8, 128), nil }},
		{"E11", "end-to-end runtime", func() (string, error) {
			rep, err := exp.EndToEndReport(32, 32, []int{64, 256, 1024}, t)
			if err != nil {
				return "", err
			}
			cross, err := exp.CrossoverReport(32, 32, []int{64, 256, 1024, 4096}, t)
			return rep + cross, err
		}},
		{"E12", "shared ALUs", func() (string, error) { return exp.SharedALUsReport(128) }},
		{"E13", "self-timed forwarding", func() (string, error) { return exp.SelfTimedReport(32) }},
		{"E14", "memory renaming", func() (string, error) { return exp.MemRenamingReport(16) }},
		{"E15", "fetch mechanisms", func() (string, error) { return exp.FetchModelsReport(64) }},
		{"E16", "the large-L regime", func() (string, error) { return exp.LargeLReport(t) }},
		{"E17", "distributed cluster caches", func() (string, error) { return exp.ClusterCachesReport(16, 4) }},
		{"E18", "gate-level validation", func() (string, error) { return exp.GateLevelReport(4) }},
		{"E19", "technology scaling", exp.TechScalingReport},
		{"E20", "return-address stack ablation", func() (string, error) { return exp.ReturnStackReport(32) }},
	} {
		fmt.Fprintf(w, "\n================ %s — %s ================\n\n", e.id, e.title)
		rep, err := e.run()
		if err != nil {
			return err
		}
		fmt.Fprint(w, rep)
	}
	return nil
}
