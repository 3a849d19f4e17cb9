package exp_test

// Tests for the one shard checkpoint shared by the single-process
// campaign runner and the fleet coordinator: both sides read and write
// the same file, under the same fingerprint and the same torn-tail
// rule.

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"ultrascalar/internal/atomicio"
	"ultrascalar/internal/exp"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/fleet"
	"ultrascalar/internal/serve"
)

// sharedSpec is a full default campaign at a small window and one
// trial per cell, run either directly or through a fleet coordinator.
var sharedSpec = fleet.CampaignSpec{Seed: 5, Window: 6, Trials: 1}

func sharedCampaign(ckpt string) exp.FaultCampaignConfig {
	return exp.FaultCampaignConfig{Seed: sharedSpec.Seed, Window: sharedSpec.Window,
		Cluster: sharedSpec.Cluster, N: sharedSpec.Trials, Detect: fault.DetectGolden,
		Checkpoint: ckpt}
}

func reportText(t *testing.T, rep *fault.Report) string {
	t.Helper()
	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// runCoordinator runs sharedSpec through a fleet coordinator resuming
// from ckpt and returns its report and final status.
func runCoordinator(t *testing.T, ckpt string, workers ...string) (string, fleet.Status) {
	t.Helper()
	c, err := fleet.New(fleet.Config{
		Workers: workers, Campaign: sharedSpec, Checkpoint: ckpt,
		Heartbeat: 5 * time.Millisecond, LeaseTTL: time.Minute, HedgeAfter: -1,
		Retry: fleet.Policy{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Mult: 2},
		Rand:  func() float64 { return 0.5 },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	return reportText(t, rep), c.Status()
}

// TestFleetResumesFromCampaignCheckpoint: a checkpoint written by the
// single-process runner is a complete fleet checkpoint of the same
// campaign — the coordinator contacts no worker and reproduces the
// report byte for byte.
func TestFleetResumesFromCampaignCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	rep, err := exp.RunFaultCampaign(sharedCampaign(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	want := reportText(t, rep)

	got, st := runCoordinator(t, ckpt, "http://127.0.0.1:1") // nothing listens there
	if got != want {
		t.Fatalf("fleet report from a usfault checkpoint diverges\n--- direct ---\n%s--- fleet ---\n%s", want, got)
	}
	if st.Dispatches != 0 || st.Resumed != st.ShardsTotal {
		t.Fatalf("resume contacted workers: %d dispatches, %d/%d resumed", st.Dispatches, st.Resumed, st.ShardsTotal)
	}
}

// TestFleetTornTailRerunsOneShard: a checkpoint whose last line was
// torn resumes every other shard and dispatches exactly the torn one.
func TestFleetTornTailRerunsOneShard(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	rep, err := exp.RunFaultCampaign(sharedCampaign(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	want := reportText(t, rep)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(ckpt, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := serve.New(serve.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Drain(ctx)
	})

	got, st := runCoordinator(t, ckpt, srv.URL)
	if got != want {
		t.Fatalf("torn-tail resume diverges\n--- direct ---\n%s--- fleet ---\n%s", want, got)
	}
	if st.Dispatches != 1 || st.Resumed != st.ShardsTotal-1 {
		t.Fatalf("torn-tail resume: %d dispatches, %d/%d resumed; want 1 and all but one",
			st.Dispatches, st.Resumed, st.ShardsTotal)
	}
	// The rerun shard is re-recorded last, under the torn line's key.
	after, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(data) {
		t.Fatalf("checkpoint after the rerun differs from the original\n--- before ---\n%s--- after ---\n%s", data, after)
	}
}

// TestFleetRefusesOldFleetCheckpoint: a file in the retired
// coordinator-only format fails on the magic check, naming the file.
func TestFleetRefusesOldFleetCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	old := `{"magic":"usfleet-checkpoint/v1","fingerprint":"seed=5 n=1 window=6 cluster=0 detect=golden"}` + "\n"
	if err := os.WriteFile(ckpt, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := fleet.New(fleet.Config{Workers: []string{"http://127.0.0.1:1"}, Campaign: sharedSpec, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), ckpt) || !strings.Contains(err.Error(), "usfault-checkpoint/v2") {
		t.Fatalf("old fleet checkpoint: err = %v, want a magic error naming %s", err, ckpt)
	}
}

// TestFingerprintResolvesDefaults: the fingerprint names the campaign
// after defaults are applied, so a zero Cluster and Window/4 agree and
// the default campaign's header bytes stay pinned.
func TestFingerprintResolvesDefaults(t *testing.T) {
	base := exp.FaultCampaignConfig{Seed: 401, Window: 64, N: 64, Detect: fault.DetectGolden}
	explicit := base
	explicit.Cluster = base.Window / 4
	if base.Fingerprint() != explicit.Fingerprint() {
		t.Fatalf("cluster=0 and cluster=window/4 fingerprint differently:\n  %s\n  %s",
			base.Fingerprint(), explicit.Fingerprint())
	}
	other := base
	other.Cluster = 8
	if other.Fingerprint() == base.Fingerprint() {
		t.Fatal("a different cluster size shares the default fingerprint")
	}
	const want = "seed=401 n=64 window=64 cluster=16 detect=golden archs=hybrid,ultra1,ultra2 " +
		"sites=result-bit,operand-bit,merge-bit,ready-stuck1,ready-stuck0,drop-forward,dup-forward " +
		"workloads=fib,vecsum,gcd"
	if got := base.Fingerprint(); got != want {
		t.Fatalf("default fingerprint changed\n  got:  %s\n  want: %s", got, want)
	}
}

// TestCheckpointRecordENOSPC: a Record whose write fails leaves the
// in-memory done set equal to what is on disk, and a later Record
// succeeds.
func TestCheckpointRecordENOSPC(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	fp := sharedCampaign("").Fingerprint()
	ck, err := exp.OpenCheckpoint(ckpt, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("ultra1/fib/result-bit", fault.Cell{Points: 1, Masked: 1}); err != nil {
		t.Fatal(err)
	}
	atomicio.SetFaults(atomicio.Faults{WriteENOSPCEvery: 1})
	err = ck.Record("ultra1/fib/operand-bit", fault.Cell{Points: 1, SDC: 1})
	atomicio.SetFaults(atomicio.Faults{})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Record under injected ENOSPC: err = %v, want ENOSPC", err)
	}
	onDisk := func() map[string]fault.Cell {
		t.Helper()
		re, err := exp.OpenCheckpoint(ckpt, fp)
		if err != nil {
			t.Fatal(err)
		}
		return re.Done()
	}
	if got, disk := ck.Done(), onDisk(); !reflect.DeepEqual(got, disk) || len(got) != 1 {
		t.Fatalf("after a failed Record: memory %v, disk %v; want the one recorded shard in both", got, disk)
	}
	if err := ck.Record("ultra1/fib/operand-bit", fault.Cell{Points: 1, SDC: 1}); err != nil {
		t.Fatal(err)
	}
	if got, disk := ck.Done(), onDisk(); !reflect.DeepEqual(got, disk) || len(got) != 2 {
		t.Fatalf("after a retried Record: memory %v, disk %v; want both shards in both", got, disk)
	}
}

// FuzzOpenCheckpoint: opening arbitrary bytes as a checkpoint never
// panics, and whenever it succeeds the file it leaves behind reopens
// to the same done set and the same bytes.
func FuzzOpenCheckpoint(f *testing.F) {
	fp := exp.FaultCampaignConfig{Seed: 1, Window: 8, N: 1}.Fingerprint()
	hdr := `{"magic":"usfault-checkpoint/v2","fingerprint":"` + fp + `"}` + "\n"
	line := `{"shard":"ultra1/fib/result-bit","cell":{"arch":"ultra1/fib","site":"result-bit","points":1,"masked":1}}` + "\n"
	f.Add([]byte(hdr))
	f.Add([]byte(hdr + line))
	f.Add([]byte(hdr + line + line[:40]))
	f.Add([]byte(hdr + "{torn\n" + line))
	f.Add([]byte(hdr + "\r\n  \n" + line + "null\n"))
	f.Add([]byte(`{"magic":"usfleet-checkpoint/v1","fingerprint":"seed=1 n=1 window=8 cluster=0 detect=golden"}` + "\n" + line))
	f.Add([]byte(`{"magic":"usfault-checkpoint/v2","fingerprint":"seed=2"}` + "\n"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ckpt := filepath.Join(t.TempDir(), "c.ckpt")
		if err := os.WriteFile(ckpt, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := exp.OpenCheckpoint(ckpt, fp)
		if err != nil {
			return
		}
		first, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		re, err := exp.OpenCheckpoint(ckpt, fp)
		if err != nil {
			t.Fatalf("reopening a checkpoint this package just wrote: %v\n%q", err, first)
		}
		if !reflect.DeepEqual(ck.Done(), re.Done()) {
			t.Fatalf("reopen changed the done set: %v vs %v", ck.Done(), re.Done())
		}
		second, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(second) {
			t.Fatalf("reopen rewrote the file differently:\n%q\n%q", first, second)
		}
	})
}
