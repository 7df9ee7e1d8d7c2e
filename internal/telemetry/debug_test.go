package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func snapshotFrom(t *testing.T, addr string) Snapshot {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServeDebugPerServer is the regression test for the package-level
// debugBus swap: two live debug servers must each report their own bus,
// and starting the second must not repoint the first.
func TestServeDebugPerServer(t *testing.T) {
	b1 := NewBus(16)
	b1.Emit(Event{Op: OpTaskStart})
	addr1, stop1, err := ServeDebug("127.0.0.1:0", b1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop1()

	b2 := NewBus(16)
	for i := 0; i < 3; i++ {
		b2.Emit(Event{Op: OpTaskStart})
	}
	addr2, stop2, err := ServeDebug("127.0.0.1:0", b2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()

	if got := snapshotFrom(t, addr1).Started; got != 1 {
		t.Fatalf("server 1 reports Started=%d, want 1 (its own bus)", got)
	}
	if got := snapshotFrom(t, addr2).Started; got != 3 {
		t.Fatalf("server 2 reports Started=%d, want 3 (its own bus)", got)
	}
}

// TestNewDebugMuxSnapshotClosure: a daemon-style aggregating closure is
// evaluated per request.
func TestNewDebugMuxSnapshotClosure(t *testing.T) {
	b1, b2 := NewBus(16), NewBus(16)
	mux := NewDebugMux(func() Snapshot { return b1.Snapshot().Add(b2.Snapshot()) })
	b1.Emit(Event{Op: OpTaskComplete})
	b2.Emit(Event{Op: OpTaskComplete})
	b2.Emit(Event{Op: OpFaultCrash})

	srv := httptest.NewServer(mux)
	defer srv.Close()
	s := snapshotFrom(t, strings.TrimPrefix(srv.URL, "http://"))
	if s.Completed != 2 || s.Crashes != 1 {
		t.Fatalf("aggregated snapshot = %+v, want Completed=2 Crashes=1", s)
	}
}

// TestSnapshotAdd: field-wise sum, ElapsedNs max.
func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{ElapsedNs: 5, Emitted: 2, Dropped: 1, BatchFlushes: 3, Started: 4, StallNs: 7}
	b := Snapshot{ElapsedNs: 9, Emitted: 10, Completed: 6, HealthTransitions: 2}
	s := a.Add(b)
	if s.ElapsedNs != 9 {
		t.Fatalf("ElapsedNs = %d, want max 9", s.ElapsedNs)
	}
	if s.Emitted != 12 || s.Dropped != 1 || s.BatchFlushes != 3 || s.Started != 4 ||
		s.Completed != 6 || s.StallNs != 7 || s.HealthTransitions != 2 {
		t.Fatalf("Add = %+v", s)
	}
}

// TestEmitBatchCountsFlushes: the bus counts bulk flushes so the
// service registry can expose Batcher flush rates.
func TestEmitBatchCountsFlushes(t *testing.T) {
	b := NewBus(16)
	b.EmitBatch([]Event{{Op: OpTaskStart}, {Op: OpTaskComplete}})
	b.EmitBatch(nil) // empty batches are not flushes
	b.EmitBatch([]Event{{Op: OpTaskComplete}})
	if got := b.Snapshot().BatchFlushes; got != 2 {
		t.Fatalf("BatchFlushes = %d, want 2", got)
	}
	var nilBus *Bus
	nilBus.EmitBatch([]Event{{Op: OpTaskStart}})
	if nilBus.Snapshot().BatchFlushes != 0 {
		t.Fatal("nil bus counted a flush")
	}
}
