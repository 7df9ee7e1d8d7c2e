package telemetry

// Batcher amortizes the bus's ring lock for a single producer goroutine:
// events are stamped and buffered locally at Emit time, then published in
// one EmitBatch per flush. The concurrent executor gives each stage
// goroutine its own Batcher and flushes at scheduling boundaries (park,
// loop exit) and whenever the local buffer fills, so a busy stage pays
// one lock acquisition per ~batch of task events instead of one per
// event.
//
// A Batcher is NOT safe for concurrent use — it belongs to exactly one
// goroutine. Emitters shared across goroutines (the stage caches, the
// fault plane's prefetch-failure events) keep using Bus.Emit directly.
//
// Semantics relative to unbatched emission: timestamps are identical
// (stamped at Emit), live counters and the captured stream lag by at most
// one unflushed buffer, and ring-order may interleave differently across
// producers — which no consumer observes, because the Chrome-trace
// exporter sorts by timestamp and span reconstruction is order-
// insensitive.
type Batcher struct {
	bus *Bus
	buf []Event
}

// batcherCap is the local buffer size; a flush happens at the latest
// after this many events.
const batcherCap = 64

// NewBatcher returns a batcher publishing to bus. A nil bus yields a nil
// batcher; like the bus, the nil *Batcher is the disabled instance and
// every method on it is a nil-safe no-op.
func NewBatcher(bus *Bus) *Batcher {
	if bus == nil {
		return nil
	}
	return &Batcher{bus: bus, buf: make([]Event, 0, batcherCap)}
}

// Enabled reports whether events go anywhere. Nil-safe.
func (t *Batcher) Enabled() bool { return t != nil }

// Emit stamps the event with the bus's current clock and queues it,
// flushing if the local buffer is full. Nil-safe; allocation-free.
func (t *Batcher) Emit(ev Event) {
	if t == nil {
		return
	}
	ev.TsNs = t.bus.Now()
	t.buf = append(t.buf, ev)
	if len(t.buf) >= batcherCap {
		t.Flush()
	}
}

// Flush publishes every queued event to the bus. Nil-safe. Callers must
// flush before the stream is read (the executor does so when a stage
// parks and when its goroutine exits).
func (t *Batcher) Flush() {
	if t == nil || len(t.buf) == 0 {
		return
	}
	t.bus.EmitBatch(t.buf)
	t.buf = t.buf[:0]
}

// Pending returns the number of queued, unflushed events. Nil-safe.
func (t *Batcher) Pending() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}
