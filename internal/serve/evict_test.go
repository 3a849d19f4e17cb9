package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"ultrascalar/internal/atomicio"
)

// bigReport is a job's report, distinct per job so a retained record
// really holds its own copy.
func bigReport(id string) string {
	return strings.Repeat(id+" ", 64<<10/(len(id)+1))
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runFinished submits n jobs one after another and waits for each to
// finish, returning their IDs.
func runFinished(t *testing.T, m *Manager, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; i < n; i++ {
		job, serr := m.Submit(JobRequest{Kind: "sweep", Window: 4})
		if serr != nil {
			t.Fatalf("Submit %d: %v", i, serr)
		}
		waitFinished(t, m, job.ID)
		ids = append(ids, job.ID)
	}
	return ids
}

// waitFinished blocks until the job is done, through the progress view
// (which, unlike Get, never touches disk).
func waitFinished(t *testing.T, m *Manager, id string) {
	t.Helper()
	var p Progress
	for !TerminalState(p.State) {
		var serr *Error
		if p, serr = m.WaitProgress(id, p, nil); serr != nil {
			t.Fatalf("WaitProgress(%s): %v", id, serr)
		}
	}
	if p.State != StateDone {
		t.Fatalf("job %s ended %s", id, p.State)
	}
}

// TestFinishedJobsEvictedFromMemory: finished records leave memory once
// persisted, so live heap stays flat however many 64 KiB reports the
// service has produced, while every read path still serves them — from
// disk — before and after a restart.
func TestFinishedJobsEvictedFromMemory(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir, Workers: 1})
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		return bigReport(job.ID), nil
	}
	runFinished(t, m, 2) // warm up
	before := liveHeap()
	const n = 40
	ids := runFinished(t, m, n)
	after := liveHeap()
	// Retaining the records would hold n × 64 KiB = 2.5 MiB.
	if after > before && after-before > 512<<10 {
		t.Fatalf("live heap grew %d KiB over %d finished jobs; records are retained", (after-before)>>10, n)
	}
	m.mu.Lock()
	inMemory, indexed := len(m.jobs), len(m.finished)
	m.mu.Unlock()
	if inMemory != 0 || indexed != n+2 {
		t.Fatalf("after %d finished jobs: %d records in memory, %d indexed; want 0 and %d", n+2, inMemory, indexed, n+2)
	}

	check := func(m *Manager, srv string) {
		t.Helper()
		for _, id := range ids {
			job, serr := m.Get(id)
			if serr != nil || job.State != StateDone || job.Report != bigReport(id) {
				t.Fatalf("Get(%s) of an evicted record: %v, state %q", id, serr, job.State)
			}
			if p, serr := m.Progress(id); serr != nil || p.State != StateDone || p.ID != id {
				t.Fatalf("Progress(%s): %+v %v", id, p, serr)
			}
		}
		got, serr := m.Cancel(ids[0])
		if serr != nil || got.State != StateDone || got.Report != bigReport(ids[0]) {
			t.Fatalf("Cancel of a finished, evicted job: %v %+v", serr, got)
		}
		list := m.List()
		if len(list) != n+2 {
			t.Fatalf("List returned %d jobs, want %d", len(list), n+2)
		}
		for i, job := range list {
			if want := fmt.Sprintf("job-%06d", i+1); job.ID != want || job.Report != bigReport(want) {
				t.Fatalf("List[%d] = %s (report ok %v), want %s", i, job.ID, job.Report == bigReport(want), want)
			}
		}
		if srv == "" {
			return
		}
		resp, err := http.Get(srv + "/jobs/" + ids[n-1] + "/report")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != bigReport(ids[n-1]) {
			t.Fatalf("report of an evicted job over HTTP: %d, %d bytes", resp.StatusCode, len(body))
		}
	}
	check(m, "")

	// Restart on the same state: the finished records are indexed, not
	// loaded, and still served; new IDs continue the sequence.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m.Drain(ctx)
	m2, srv := newTestServer(t, Config{Dir: dir})
	m2.mu.Lock()
	inMemory, indexed = len(m2.jobs), len(m2.finished)
	m2.mu.Unlock()
	if inMemory != 0 || indexed != n+2 {
		t.Fatalf("after restart: %d records in memory, %d indexed; want 0 and %d", inMemory, indexed, n+2)
	}
	check(m2, srv.URL)
	job, serr := m2.Submit(JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"})
	if serr != nil {
		t.Fatal(serr)
	}
	if want := fmt.Sprintf("job-%06d", n+3); job.ID != want {
		t.Fatalf("next ID after restart = %s, want %s", job.ID, want)
	}
}

// TestUnpersistedRecordStaysInMemory: a finished record whose write
// failed is not evicted; the in-memory record stays authoritative.
func TestUnpersistedRecordStaysInMemory(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		return bigReport(job.ID), nil
	}
	atomicio.SetFaults(atomicio.Faults{WriteENOSPCEvery: 1})
	t.Cleanup(func() { atomicio.SetFaults(atomicio.Faults{}) })
	job, serr := m.Submit(JobRequest{Kind: "sweep", Window: 4})
	if serr != nil {
		t.Fatal(serr)
	}
	waitFinished(t, m, job.ID)
	atomicio.SetFaults(atomicio.Faults{})
	m.mu.Lock()
	_, inMemory := m.jobs[job.ID]
	_, indexed := m.finished[job.ID]
	m.mu.Unlock()
	if !inMemory || indexed {
		t.Fatalf("unpersisted finished record: in memory %v, indexed %v; want true, false", inMemory, indexed)
	}
	got, serr := m.Get(job.ID)
	if serr != nil || got.State != StateDone || got.Report != bigReport(job.ID) {
		t.Fatalf("Get of the unpersisted record: %v %+v", serr, got)
	}
}
