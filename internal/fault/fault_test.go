package fault

import (
	"math/rand"
	"strings"
	"testing"
)

func TestPlanDeterminism(t *testing.T) {
	p := GenParams{Window: 16, NumRegs: 32, MaxCycle: 500, N: 50}
	a := NewPlan(42, p)
	b := NewPlan(42, p)
	if !a.Equal(b) {
		t.Fatalf("same seed produced different plans:\n%s\nvs\n%s", a.Encode(), b.Encode())
	}
	c := NewPlan(43, p)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical 50-fault plans")
	}
}

// TestPlanRecycledRandMatchesFresh: NewPlan re-seeds pooled generators;
// every plan must equal the one a fresh rand.New(rand.NewSource(seed))
// draws, across seeds, parameter shapes and generators left in any
// state by the previous draw.
func TestPlanRecycledRandMatchesFresh(t *testing.T) {
	params := []GenParams{
		{Window: 16, NumRegs: 32, MaxCycle: 500, N: 50},
		{Window: 1, NumRegs: 1, MaxCycle: 1, N: 3},
		{Window: 256, NumRegs: 8, MaxCycle: 1 << 20, N: 1, Sites: []Site{SiteReadyStuck0}},
		{Window: 64, NumRegs: 32, MaxCycle: 5000, N: 7, StuckDur: 3},
		{Window: 0, NumRegs: 0, MaxCycle: 0, N: 0},
	}
	for seed := int64(-40); seed < 400; seed += 3 {
		for _, p := range params {
			want := genPlan(rand.New(rand.NewSource(seed)), seed, p)
			if got := NewPlan(seed, p); !got.Equal(want) {
				t.Fatalf("seed %d params %+v: recycled generator diverges\n%s\nvs fresh\n%s",
					seed, p, got.Encode(), want.Encode())
			}
		}
	}
}

func TestPlanSorted(t *testing.T) {
	p := NewPlan(7, GenParams{Window: 8, NumRegs: 16, MaxCycle: 1000, N: 200})
	for i := 1; i < len(p.Faults); i++ {
		if p.Faults[i].Cycle < p.Faults[i-1].Cycle {
			t.Fatalf("plan not cycle-sorted at %d: %d after %d",
				i, p.Faults[i].Cycle, p.Faults[i-1].Cycle)
		}
	}
}

func TestPlanBounds(t *testing.T) {
	params := GenParams{Window: 4, NumRegs: 8, MaxCycle: 100, N: 500}
	p := NewPlan(1, params)
	if len(p.Faults) != 500 {
		t.Fatalf("got %d faults, want 500", len(p.Faults))
	}
	for _, f := range p.Faults {
		if f.Cycle < 1 || f.Cycle > 100 {
			t.Errorf("cycle %d out of [1,100]", f.Cycle)
		}
		if f.Slot < 0 || f.Slot >= 4 {
			t.Errorf("slot %d out of [0,4)", f.Slot)
		}
		if f.Bit > 31 || f.Op > 1 {
			t.Errorf("bit=%d op=%d out of range", f.Bit, f.Op)
		}
		if f.Reg >= 8 {
			t.Errorf("reg %d out of [0,8)", f.Reg)
		}
		if f.Site == SiteReadyStuck0 && f.Dur < 1 {
			t.Errorf("stuck0 fault with dur %d", f.Dur)
		}
		if f.Site != SiteReadyStuck0 && f.Dur != 0 {
			t.Errorf("%s fault with nonzero dur %d", f.Site, f.Dur)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := NewPlan(99, GenParams{Window: 32, NumRegs: 32, MaxCycle: 2000, N: 64})
	enc := p.Encode()
	q, err := DecodePlan(enc)
	if err != nil {
		t.Fatalf("decoding own encoding: %v\n%s", err, enc)
	}
	if !p.Equal(q) {
		t.Fatalf("round trip changed the plan:\n%s\nvs\n%s", enc, q.Encode())
	}
	if q.Encode() != enc {
		t.Fatal("re-encoding is not byte-identical")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"not-a-plan",
		"usfault-plan/v1 seed=x",
		"usfault-plan/v1 seed=1\nbogus-site cycle=1 slot=0 bit=0 op=0 reg=0 dur=0",
		"usfault-plan/v1 seed=1\nresult-bit cycle=1 slot=0",
		"usfault-plan/v1 seed=1\nresult-bit cycle=-5 slot=0 bit=0 op=0 reg=0 dur=0",
		"usfault-plan/v1 seed=1\nresult-bit cycle=1 slot=0 bit=40 op=0 reg=0 dur=0",
	}
	for _, s := range bad {
		if _, err := DecodePlan(s); err == nil {
			t.Errorf("decoded malformed plan without error: %q", s)
		}
	}
}

func TestSiteAndDetectNames(t *testing.T) {
	for _, s := range AllSites() {
		name := s.String()
		if strings.Contains(name, "?") {
			t.Fatalf("site %d has no name", s)
		}
		back, ok := SiteFromString(name)
		if !ok || back != s {
			t.Fatalf("site name %q does not round-trip", name)
		}
	}
	for _, d := range []Detect{DetectNone, DetectParity, DetectGolden} {
		back, ok := DetectFromString(d.String())
		if !ok || back != d {
			t.Fatalf("detect name %q does not round-trip", d)
		}
	}
}

func TestLogCounters(t *testing.T) {
	var l Log
	l.Add(Record{Kind: RecInject, Site: SiteResultBit, Cycle: 5})
	l.Add(Record{Kind: RecDetect, Site: SiteResultBit, Cycle: 9})
	l.Add(Record{Kind: RecRecover, Site: SiteResultBit, Cycle: 9, Arg: 7})
	l.Add(Record{Kind: RecWatchdog, Cycle: 40})
	if l.Applied != 1 || l.Detected != 1 || l.Recovered != 1 || l.WatchdogFires != 1 {
		t.Fatalf("counters wrong: %+v", l)
	}
	if l.SquashedStations != 7 {
		t.Fatalf("squashed stations %d, want 7", l.SquashedStations)
	}
	if len(l.Records) != 4 {
		t.Fatalf("records %d, want 4", len(l.Records))
	}
	var nilLog *Log
	nilLog.Add(Record{Kind: RecInject}) // must not panic
}

func TestReportRenderingDeterministic(t *testing.T) {
	mk := func() *Report {
		return &Report{
			Seed: 3, N: 8, Window: 16, Detect: "golden", Shards: 2,
			Cells: []Cell{
				{Arch: "ultra2", Site: "result-bit", Points: 8, Masked: 3, Detected: 5, Recovered: 5, ExtraCycles: 40},
				{Arch: "ultra1", Site: "merge-bit", Points: 8, Vacuous: 2, Masked: 6},
			},
		}
	}
	var a, b strings.Builder
	if err := mk().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("report rendering is not deterministic")
	}
	if !strings.Contains(a.String(), "ultra1") || !strings.Contains(a.String(), "TOTAL") {
		t.Fatalf("report missing expected content:\n%s", a.String())
	}
	// Cells must come out sorted regardless of input order.
	if strings.Index(a.String(), "ultra1") > strings.Index(a.String(), "ultra2") {
		t.Fatalf("cells not sorted by arch:\n%s", a.String())
	}
}
