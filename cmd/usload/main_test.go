package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ultrascalar/internal/obs"
	"ultrascalar/internal/serve"
)

// asMain, set in a child's environment, makes the test binary run
// usload's main with the child's arguments instead of the tests.
const asMain = "USLOAD_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// slowServer fakes the job API: every submit takes delay before it is
// accepted, and every job is done at its first poll.
func slowServer(t *testing.T, delay time.Duration) *httptest.Server {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("serve.jobs_submitted")
	var ids atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		reg.Counter("serve.jobs_submitted").Inc()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.Job{ID: fmt.Sprintf("job-%06d", ids.Add(1)), State: serve.StateQueued})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.Job{ID: r.PathValue("id"), State: serve.StateDone, Report: "report\n"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Peek(0)
		if r.URL.Query().Get("format") == "prom" {
			obs.WritePrometheus(w, snap)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"snapshot": snap})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestLatencyRecorded runs usload against a server whose submits take
// at least delay and requires every recorded latency to cover it: the
// per-request records and the per-class quantiles must not read zero.
func TestLatencyRecorded(t *testing.T) {
	const delay = 25 * time.Millisecond
	srv := slowServer(t, delay)
	dir := t.TempDir()
	out, sum := filepath.Join(dir, "req.jsonl"), filepath.Join(dir, "summary.json")
	cmd := exec.Command(os.Args[0], "-target", srv.URL, "-requests", "6", "-poll", "1ms",
		"-out", out, "-summary", sum, "-verify-server")
	cmd.Env = append(os.Environ(), asMain+"=1")
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("usload: %v\n%s", err, msg)
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Outcome != outDone {
			t.Errorf("request %d: outcome %s, want done", rec.Index, rec.Outcome)
		}
		if rec.LatencyMs < float64(delay.Milliseconds()) {
			t.Errorf("request %d: latency_ms %.3f < the server's %v submit delay", rec.Index, rec.LatencyMs, delay)
		}
	}
	if n != 6 {
		t.Errorf("%d records, want 6", n)
	}

	data, err := os.ReadFile(sum)
	if err != nil {
		t.Fatal(err)
	}
	var doc summaryDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for class, cs := range doc.PerClass {
		if cs.P50Ms < float64(delay.Milliseconds()) {
			t.Errorf("%s: p50 %.3f ms < the %v submit delay", class, cs.P50Ms, delay)
		}
	}
	if !strings.Contains(string(data), `"per_class"`) || len(doc.PerClass) == 0 {
		t.Errorf("summary has no per-class latencies:\n%s", data)
	}
}
