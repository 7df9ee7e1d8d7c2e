// Package prefetch puts internal/memctx's context manager on the wall
// clock for the concurrent execution plane. Residency, LRU, the serialized
// PCIe channel and every counter are memctx.Manager's — the code the
// discrete-event engine runs — so the two planes cannot model the cache
// differently, except in the one decision New switches: write-back does
// not occupy the copy channel here. A Cache adds only what is genuinely
// wall-clock:
//
//   - a mutex: a Cache is shared between its stage's goroutine (Acquire/
//     Release/Evict around each forward and backward, and the stage's own
//     prefetches) and the neighbouring stages' goroutines issuing
//     cross-stage prefetches;
//   - the clock: the manager is driven with nanoseconds since the cache
//     was built, and a bandwidth scaled so a modelled copy millisecond
//     lasts scale wall-clock milliseconds. A zero scale models instant
//     copies (the default for tests and benches, where stage compute is
//     itself only a scheduler yield); a positive scale makes late
//     prefetches and synchronous-fetch stalls observable in real time;
//   - the wait: copy completion is a deadline rather than a channel, so
//     issuing a prefetch never blocks and only Acquire — the point where
//     the paper's stage stalls — waits, once, for the task's last copy:
//     one clock.Sleep, so a stall costs its copy and not a timer tick;
//   - telemetry: prefetch/hit/miss/evict/stall events derived from the
//     manager's counters around each call.
package prefetch

import (
	"fmt"
	"math"
	"sync"
	"time"

	"naspipe/internal/clock"
	"naspipe/internal/memctx"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
)

// Stats is the memctx stats shape: the two planes report the same
// counters so table and bench code renders either uniformly.
type Stats = memctx.Stats

// Cache is one stage's thread-safe GPU memory cache over the supernet's
// layers. The zero value is not usable; construct with New.
type Cache struct {
	mu sync.Mutex
	m  *memctx.Manager // clock unit: nanoseconds since the cache was built

	// now and sleep are the wall clock; tests substitute a fake.
	now   func() time.Duration
	sleep func(time.Duration)

	// tel, when non-nil, receives prefetch/hit/miss/stall/evict events
	// attributed to stage (see WithTelemetry). Never emitted to on the
	// default path: a nil bus keeps every method allocation-free.
	tel   *telemetry.Bus
	stage int32
}

// New returns a cache with the given byte capacity (negative = unbounded)
// and PCIe bandwidth in bytes per millisecond. scale converts modeled
// copy milliseconds into wall-clock delay: 0 models instant copies, 1
// plays them out in real time.
func New(capacity int64, bandwidthBytesPerMs, scale float64) *Cache {
	if bandwidthBytesPerMs <= 0 {
		panic(fmt.Sprintf("prefetch: invalid bandwidth %f", bandwidthBytesPerMs))
	}
	if scale < 0 {
		panic(fmt.Sprintf("prefetch: negative time scale %f", scale))
	}
	bytesPerNs := math.Inf(1) // scale 0: every copy is instant
	if scale > 0 {
		bytesPerNs = bandwidthBytesPerMs / (scale * float64(time.Millisecond))
	}
	m := memctx.New(capacity, bytesPerNs)
	// The one modelling decision this plane does not share with the
	// simulator, and no configuration surface reaches it: with write-back
	// on the channel every backward's flushed context queues ahead of the
	// next prefetch, which cost pipe-cache 5 % of its throughput in 12 of
	// 12 alternating benchmark pairs (DESIGN.md, "One model, two clocks").
	m.DuplexWriteBack = true
	epoch := time.Now()
	return &Cache{
		m:     m,
		now:   func() time.Duration { return time.Since(epoch) },
		sleep: clock.Sleep,
	}
}

// WithTelemetry attaches a bus and stage attribution to the cache's
// event emissions and returns the cache. Call before sharing the cache
// across goroutines.
func (c *Cache) WithTelemetry(tel *telemetry.Bus, stage int32) *Cache {
	c.tel = tel
	c.stage = stage
	return c
}

// emit publishes one instant event attributed to this cache's stage.
func (c *Cache) emit(op telemetry.Op, worker, subnet int32, kind int8, arg int64) {
	if c.tel == nil {
		return
	}
	c.tel.Emit(telemetry.Event{
		Op: op, Phase: telemetry.PhaseInstant,
		Stage: c.stage, Worker: worker, Subnet: subnet, Kind: kind, Arg: arg,
	})
}

// emitEvicted publishes the residency one call freed, explicitly or under
// capacity pressure: the growth of the manager's write-back counter.
func (c *Cache) emitEvicted(freed int64) {
	if freed > 0 {
		c.emit(telemetry.OpCacheEvict, telemetry.WorkerMem, -1, telemetry.KindNone, freed)
	}
}

// Stats returns a copy of the accumulated statistics, StallMs in
// wall-clock milliseconds.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.m.Stats()
	st.StallMs /= float64(time.Millisecond)
	return st
}

// Used returns the current resident (plus in-flight) byte count.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Used()
}

// Capacity returns the configured capacity (<0 = unbounded).
func (c *Cache) Capacity() int64 { return c.m.Capacity() }

// Prefetch issues an asynchronous copy of the layer if it is neither
// resident nor in flight. The call never blocks: the copy's completion is
// a deadline the later Acquire checks. If capacity pressure cannot be
// relieved by evicting unlocked entries, the prefetch is dropped and
// counted (the paper's "delays the operator copy"); the later Acquire
// fetches synchronously.
func (c *Cache) Prefetch(id supernet.LayerID, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := float64(c.now())
	before := c.m.Stats()
	done, issued := c.m.Prefetch(id, bytes, now)
	after := c.m.Stats()
	if c.tel == nil || after == before { // already resident or in flight
		return
	}
	c.emit(telemetry.OpPrefetchRequest, telemetry.WorkerMem, -1, telemetry.KindNone, bytes)
	c.emitEvicted(after.SwapOutBytes - before.SwapOutBytes)
	if !issued {
		c.emit(telemetry.OpPrefetchDrop, telemetry.WorkerMem, -1, telemetry.KindNone, bytes)
		return
	}
	// Land on the modeled PCIe channel at the copy's deadline; copies
	// serialize on the channel so these are monotone per stage.
	c.tel.EmitAt(c.tel.Now()+int64(done-now), telemetry.Event{
		Op: telemetry.OpPrefetchLand, Phase: telemetry.PhaseInstant,
		Stage: c.stage, Worker: telemetry.WorkerPCIe,
		Subnet: -1, Kind: telemetry.KindNone, Arg: bytes,
	})
}

// NoteDropped counts a prefetch request abandoned before reaching the
// cache (an injected copy failure), keeping every dropped fetch
// attributable in the same counter.
func (c *Cache) NoteDropped() {
	c.mu.Lock()
	c.m.NoteDropped()
	c.mu.Unlock()
	c.emit(telemetry.OpPrefetchDrop, telemetry.WorkerMem, -1, telemetry.KindNone, 0)
}

// Acquire makes every listed layer resident and locked, counting hits and
// misses, and blocks until all copies have completed. It returns the
// stall: the time from the call to the last copy's deadline. The caller
// must Release the same ids when the task finishes.
func (c *Cache) Acquire(ids []supernet.LayerID, bytes func(supernet.LayerID) int64) time.Duration {
	return c.AcquireFor(ids, bytes, -1, telemetry.KindNone)
}

// AcquireFor is Acquire with task attribution: hit/miss instants and the
// stall span (if any) carry the acquiring task's subnet and kind, so the
// event stream can charge memory waits to the task that suffered them.
func (c *Cache) AcquireFor(ids []supernet.LayerID, bytes func(supernet.LayerID) int64, subnet int32, kind int8) time.Duration {
	c.mu.Lock()
	now := c.now()
	before := c.m.Stats()
	ready := c.m.Acquire(ids, bytes, float64(now))
	after := c.m.Stats()
	c.mu.Unlock()
	// Round the deadline up to the clock's resolution so the layers are
	// resident when the wait returns; the stall charged is the modelled one.
	deadline := time.Duration(math.Ceil(ready))
	stall := deadline - now
	var begin int64
	if stall > 0 {
		// Stall outside the lock: neighbours keep the cache serviceable.
		// Manager.Acquire ran since now was read; wait for what is left.
		begin = c.tel.Now()
		c.sleep(deadline - c.now())
	}
	if c.tel == nil {
		return stall
	}
	c.emitEvicted(after.SwapOutBytes - before.SwapOutBytes)
	// One event per outcome instead of one per layer id, with Arg carrying
	// the layer count (the bus counters add Arg for these ops, so Snapshot
	// stays per-layer-exact). Late (in-flight) misses remain
	// distinguishable in Stats; per-event they fold into the miss count.
	if hits := after.Hits - before.Hits; hits > 0 {
		c.emit(telemetry.OpCacheHit, telemetry.WorkerStage, subnet, kind, int64(hits))
	}
	if misses := after.Misses - before.Misses; misses > 0 {
		c.emit(telemetry.OpCacheMiss, telemetry.WorkerStage, subnet, kind, int64(misses))
	}
	if stall > 0 {
		// Span over the wait actually paid, nested inside the caller's open
		// task span. Arg carries the modelled nanoseconds, as the
		// simulator's span does: span − Arg is this stall's overshoot.
		ev := telemetry.Event{
			Op: telemetry.OpCacheStall, Phase: telemetry.PhaseBegin,
			Stage: c.stage, Worker: telemetry.WorkerStage,
			Subnet: subnet, Kind: kind, Arg: int64(stall),
		}
		c.tel.EmitAt(begin, ev)
		ev.Phase = telemetry.PhaseEnd
		c.tel.EmitAt(c.tel.Now(), ev)
	}
	return stall
}

// Release unlocks previously acquired layers.
func (c *Cache) Release(ids []supernet.LayerID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Release(ids, float64(c.now()))
}

// Evict writes the listed layers back to pinned CPU storage and frees
// their GPU residency. Locked layers are skipped. Eviction traffic never
// stalls compute directly.
func (c *Cache) Evict(ids []supernet.LayerID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.m.Stats()
	c.m.Evict(ids, float64(c.now()))
	after := c.m.Stats()
	c.emitEvicted(after.SwapOutBytes - before.SwapOutBytes)
}
