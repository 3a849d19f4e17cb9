package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// asMain, set in a child's environment, makes the test binary run
// usbench's main with the child's arguments instead of the tests.
const asMain = "USBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFailingCompareKeepsProfile gates against a baseline no machine
// can meet and requires the failing run to leave a complete CPU profile:
// the profile matters most exactly when the gate fails.
func TestFailingCompareKeepsProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark's sweeps")
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	impossible := Report{
		Engine:      []EngineResult{{Name: "ultra1", NsPerCycle: 1e-6}},
		SteadyState: EngineResult{NsPerCycle: 1e-6},
	}
	data, err := json.Marshal(impossible)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "cpu.prof")
	cmd := exec.Command(os.Args[0], "-d", "5ms", "-o", filepath.Join(dir, "bench.json"),
		"-compare", base, "-cpuprofile", prof)
	cmd.Env = append(os.Environ(), asMain+"=1")
	msg, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("usbench against an impossible baseline: %v, want exit status 1\n%s", err, msg)
	}
	if !bytes.Contains(msg, []byte("regressed beyond")) {
		t.Errorf("no regression report in the output:\n%s", msg)
	}

	raw, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("profile of %d bytes is not gzip: %v", len(raw), err)
	}
	if body, err := io.ReadAll(zr); err != nil || len(body) == 0 {
		t.Fatalf("profile body: %d bytes, %v", len(body), err)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	if out, err := exec.Command(goTool, "tool", "pprof", "-top", prof).CombinedOutput(); err != nil {
		t.Errorf("go tool pprof cannot read the profile: %v\n%s", err, out)
	}
}
