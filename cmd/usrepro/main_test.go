package main

import (
	"os"
	"strings"
	"testing"
)

// TestReportMatchesReference regenerates the whole reproduction and
// requires it to equal docs/reproduction-report.txt byte for byte, up to
// the timing line: every experiment, E1-E20, is gated here.
func TestReportMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the whole paper")
	}
	ref, err := os.ReadFile("../../docs/reproduction-report.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok := strings.Cut(string(ref), "\nreproduced all experiments in ")
	if !ok {
		t.Fatal("reproduction-report.txt has no timing line")
	}
	var got strings.Builder
	if err := reproduce(&got, 4096); err != nil {
		t.Fatal(err)
	}
	if got.String() == want {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("report differs from docs/reproduction-report.txt at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
