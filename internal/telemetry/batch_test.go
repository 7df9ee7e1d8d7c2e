package telemetry

import (
	"sync"
	"testing"
)

// TestNilBatcherIsFreeAndNilSafe extends the disabled-telemetry contract
// to the batched path: a nil batcher (what NewBatcher returns for the nil
// bus) costs nothing and allocates nothing per emit.
func TestNilBatcherIsFreeAndNilSafe(t *testing.T) {
	tb := NewBatcher(nil)
	if tb != nil {
		t.Fatal("NewBatcher(nil) must return the nil batcher")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Emit(Event{Op: OpTaskStart, Phase: PhaseBegin, Stage: 1, Subnet: 2})
		tb.Flush()
	})
	if allocs != 0 {
		t.Fatalf("nil batcher allocates %v per emit", allocs)
	}
}

// TestBatcherEmitDoesNotAllocate pins the enabled steady state: queueing
// into the warm local buffer and flushing through EmitBatch are both
// allocation-free, so batched telemetry stays off the GC's books.
func TestBatcherEmitDoesNotAllocate(t *testing.T) {
	b := NewBus(1 << 16)
	tb := NewBatcher(b)
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Emit(Event{Op: OpTaskStart, Phase: PhaseBegin, Stage: 1, Subnet: 2})
		tb.Flush()
	})
	if allocs != 0 {
		t.Fatalf("batcher emit+flush allocates %v per event", allocs)
	}
}

// TestBatcherDeliversEventsAndCounters checks flush semantics: nothing is
// visible before a flush (below the auto-flush threshold), everything —
// stream, live counters, weighted counters — after.
func TestBatcherDeliversEventsAndCounters(t *testing.T) {
	b := NewBus(1024)
	tb := NewBatcher(b)
	tb.Emit(Event{Op: OpTaskStart, Phase: PhaseBegin, Stage: 0, Subnet: 1})
	tb.Emit(Event{Op: OpCacheHit, Phase: PhaseInstant, Arg: 3})
	if got := len(b.Events()); got != 0 {
		t.Fatalf("bus saw %d events before flush, want 0", got)
	}
	if got := len(tb.buf); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	tb.Flush()
	if got := len(b.Events()); got != 2 {
		t.Fatalf("bus has %d events after flush, want 2", got)
	}
	if got := b.Count(OpCacheHit); got != 3 {
		t.Fatalf("weighted counter = %d, want 3", got)
	}
	evs := b.Events()
	if evs[0].Op != OpTaskStart || evs[1].Op != OpCacheHit {
		t.Fatalf("flush reordered events: %v, %v", evs[0].Op, evs[1].Op)
	}
	if evs[1].TsNs < evs[0].TsNs {
		t.Fatal("timestamps must be stamped at Emit time, monotonically")
	}
}

// TestBatcherAutoFlushAtCapacity: the local buffer bounds staleness — the
// batcherCap'th emit flushes without an explicit call.
func TestBatcherAutoFlushAtCapacity(t *testing.T) {
	b := NewBus(1024)
	tb := NewBatcher(b)
	for i := 0; i < batcherCap; i++ {
		tb.Emit(Event{Op: OpTaskAdmit, Phase: PhaseInstant, Subnet: int32(i)})
	}
	if got := len(b.Events()); got != batcherCap {
		t.Fatalf("bus has %d events after %d emits, want auto-flush of all", got, batcherCap)
	}
	if len(tb.buf) != 0 {
		t.Fatalf("Pending = %d after auto-flush, want 0", len(tb.buf))
	}
}

// TestEmitBatchDropsLikeEmit: a full ring drops the batch suffix and
// counts it, while live counters still see every event — the same
// contract per-event emission has.
func TestEmitBatchDropsLikeEmit(t *testing.T) {
	const capacity = 8
	b := NewBus(capacity)
	evs := make([]Event, 20)
	for i := range evs {
		evs[i] = Event{Op: OpTaskAdmit, Phase: PhaseInstant, Subnet: int32(i), TsNs: int64(i)}
	}
	b.EmitBatch(evs)
	if got := len(b.Events()); got != capacity {
		t.Fatalf("ring kept %d, want %d", got, capacity)
	}
	if got := int(b.Dropped()); got != len(evs)-capacity {
		t.Fatalf("dropped %d, want %d", got, len(evs)-capacity)
	}
	if got := b.Count(OpTaskAdmit); got != int64(len(evs)) {
		t.Fatalf("live counter saw %d, want %d", got, len(evs))
	}
	// The kept prefix preserves batch order.
	for i, ev := range b.Events() {
		if ev.Subnet != int32(i) {
			t.Fatalf("event %d has subnet %d, want %d", i, ev.Subnet, i)
		}
	}
}

// TestBatchersConcurrentWithDirectEmit races per-goroutine batchers
// against direct emitters on one bus (run with -race): the mixed mode the
// concurrent executor uses (stage batchers + shared-path direct emits).
func TestBatchersConcurrentWithDirectEmit(t *testing.T) {
	const (
		producers = 4
		perProd   = 300
	)
	b := NewBus(producers * perProd * 2)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			tb := NewBatcher(b)
			for i := 0; i < perProd; i++ {
				tb.Emit(Event{Op: OpTaskStart, Phase: PhaseBegin, Stage: int32(p), Subnet: int32(i)})
			}
			tb.Flush()
		}(p)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				b.Emit(Event{Op: OpFaultFetch, Phase: PhaseInstant, Stage: int32(p), Subnet: int32(i)})
			}
		}(p)
	}
	wg.Wait()
	total := 2 * producers * perProd
	if got := len(b.Events()); got != total {
		t.Fatalf("bus has %d events, want %d", got, total)
	}
	if got := b.Count(OpTaskStart); got != int64(producers*perProd) {
		t.Fatalf("batched counter = %d, want %d", got, producers*perProd)
	}
}
