// Package memctx implements NASPipe's per-stage GPU context manager
// (§3.1, §4.2): the component that keeps only the activated subnets'
// layers in GPU memory, prefetches forecast contexts from pinned CPU
// storage, and evicts finished contexts.
//
// The manager is time-aware but neither threaded nor tied to a clock:
// every method takes the caller's now, and the bandwidth is bytes per
// unit of that clock. The discrete-event engine drives it with simulated
// milliseconds; internal/prefetch drives the same code with wall-clock
// nanoseconds behind a mutex. The manager tracks, per layer, when its
// asynchronous PCIe copy completes. CPU↔GPU copies serialize on one PCIe
// channel per stage, matching the testbed's one x16 link per GPU; because
// CPU storage is pinned (page-locked), copies are asynchronous with
// compute — a stage only stalls when it needs a layer whose copy has not
// finished (a cache miss, or a prefetch issued too late).
//
// The modelling decisions both planes therefore share:
//   - hit: the layer is resident (its copy has landed) at the now of the
//     Acquire that activates it — the paper's definition; every layer of
//     one Acquire is classified at that same instant;
//   - stall: the latest completion among the task's layers minus now,
//     once per Acquire;
//   - LRU: by last-use clock value, ties broken by LayerID;
//   - in-flight entries are never evicted;
//   - write-back (Evict, LRU eviction) occupies the PCIe channel — the
//     one decision a caller can switch off, see Manager.DuplexWriteBack.
package memctx

import (
	"fmt"
	"slices"

	"naspipe/internal/supernet"
)

// Stats aggregates the manager's micro events (paper Table 2 columns
// "Cache Hit", "CPU Mem.", and the swap traffic behind "Exec.").
type Stats struct {
	Hits              int     // layer accesses served from residency
	Misses            int     // layer accesses that had to wait for a copy
	Prefetches        int     // asynchronous fetches issued
	LatePrefetches    int     // accesses that found the copy in flight
	DroppedPrefetches int     // prefetches abandoned: capacity held by locked entries
	SwapInBytes       int64   // CPU->GPU traffic
	SwapOutBytes      int64   // GPU->CPU traffic
	StallMs           float64 // total compute stall waiting on copies (in the driving clock's unit; reported in ms)
	PeakBytes         int64   // high-water residency
	OverCapacity      int     // forced residency beyond capacity (should stay 0)
	EvictionsForced   int     // LRU evictions triggered by capacity pressure
}

// HitRate returns hits / (hits + misses). With no accesses it returns 0:
// an idle or degenerate stage has earned no hits, and reporting 1.0 would
// inflate aggregate hit-rate cells (Table 2) for stages that never ran.
// Callers that want to distinguish "no accesses" from "all misses" should
// check Hits+Misses themselves (the tables render such cells as N/A).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	id      supernet.LayerID
	bytes   int64
	readyAt float64 // copy completion time; resident once now >= readyAt
	lastUse float64
	locked  int // lock count: concurrently executing tasks may share a layer
}

// Manager is one stage's GPU memory cache over the supernet's layers.
type Manager struct {
	// DuplexWriteBack takes write-back traffic off the copy channel, as on
	// a full-duplex link: evictions still free residency and count
	// SwapOutBytes but no longer delay the copies queued behind them. The
	// simulator leaves it false — its goldens pin write-back on the
	// channel; only prefetch.New sets it (see there for the measurement).
	DuplexWriteBack bool

	capacity  int64 // bytes; <0 means unbounded (whole context resident)
	bandwidth float64
	pcieFree  float64 // time the PCIe channel frees up
	used      int64
	stats     Stats

	// entries holds every resident or in-flight layer, densely and in no
	// particular order. An *entry is valid only until the next insert or
	// evict. slot is the dense index into it: slot[id] is 1 + the layer's
	// position in entries, 0 (or id past the end) when the manager does
	// not hold it. LayerIDs are dense per space, so the index grows to the
	// largest ID inserted and a lookup is one bounds-checked load.
	entries []entry
	slot    []int32
}

// New returns a manager with the given byte capacity and PCIe bandwidth
// in bytes per clock unit (the simulator's unit is the millisecond); +Inf
// makes every copy instant. A negative capacity disables eviction and
// models systems that hold their whole context in GPU memory.
func New(capacity int64, bandwidth float64) *Manager {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("memctx: invalid bandwidth %f", bandwidth))
	}
	return &Manager{capacity: capacity, bandwidth: bandwidth}
}

// index returns the layer's position in entries, or -1 when it is neither
// resident nor in flight.
func (m *Manager) index(id supernet.LayerID) int {
	if uint(id) < uint(len(m.slot)) {
		return int(m.slot[id]) - 1
	}
	return -1
}

// lookup returns the layer's entry, or nil when it is neither resident
// nor in flight.
func (m *Manager) lookup(id supernet.LayerID) *entry {
	if i := m.index(id); i >= 0 {
		return &m.entries[i]
	}
	return nil
}

// insert adds an entry for a layer the manager does not hold and returns
// it.
func (m *Manager) insert(e entry) *entry {
	if n := int(e.id) + 1; n > len(m.slot) {
		old := len(m.slot)
		m.slot = slices.Grow(m.slot, n-old)[:n]
		clear(m.slot[old:])
	}
	m.entries = append(m.entries, e)
	m.slot[e.id] = int32(len(m.entries))
	m.used += e.bytes
	return &m.entries[len(m.entries)-1]
}

// evict writes entries[i] back and frees its residency, moving the last
// entry into its place.
func (m *Manager) evict(i int, now float64) {
	b := m.entries[i].bytes
	last := len(m.entries) - 1
	m.slot[m.entries[i].id] = 0
	if i != last {
		m.entries[i] = m.entries[last]
		m.slot[m.entries[i].id] = int32(i + 1)
	}
	m.entries = m.entries[:last]
	m.used -= b
	m.stats.SwapOutBytes += b
	if !m.DuplexWriteBack {
		m.reserve(b, now)
	}
}

// Stats returns a copy of the accumulated statistics.
func (m *Manager) Stats() Stats { return m.stats }

// Used returns the current resident (plus in-flight) byte count.
func (m *Manager) Used() int64 { return m.used }

// Capacity returns the configured capacity (<0 = unbounded).
func (m *Manager) Capacity() int64 { return m.capacity }

// Resident reports whether the layer is fully resident at the given time.
func (m *Manager) Resident(id supernet.LayerID, now float64) bool {
	e := m.lookup(id)
	return e != nil && e.readyAt <= now
}

// Preload marks layers resident immediately without PCIe traffic — the
// initial placement before training starts (or the whole-context placement
// of non-swapping systems).
func (m *Manager) Preload(ids []supernet.LayerID, bytes func(supernet.LayerID) int64) {
	for _, id := range ids {
		if m.index(id) >= 0 {
			continue
		}
		m.insert(entry{id: id, bytes: bytes(id)})
	}
	if m.used > m.stats.PeakBytes {
		m.stats.PeakBytes = m.used
	}
}

// reserve books the PCIe channel for a copy of bytes starting no earlier
// than now and returns its completion time: copies serialize on the one
// channel.
func (m *Manager) reserve(bytes int64, now float64) float64 {
	start := now
	if m.pcieFree > start {
		start = m.pcieFree
	}
	m.pcieFree = start + float64(bytes)/m.bandwidth
	return m.pcieFree
}

// Prefetch issues an asynchronous copy of the layer if it is neither
// resident nor in flight. If capacity pressure cannot be relieved by
// evicting unlocked entries, the prefetch is dropped (the paper's
// "delays the operator copy"); the later Acquire will fetch it
// synchronously. It reports whether a copy was issued and, if so, when
// it completes.
func (m *Manager) Prefetch(id supernet.LayerID, bytes int64, now float64) (done float64, issued bool) {
	if m.index(id) >= 0 {
		return 0, false
	}
	if !m.makeRoom(bytes, now) {
		// Delayed: capacity is held by locked entries. Count the drop so
		// the later synchronous miss is attributable to capacity pressure
		// rather than a predictor failure.
		m.stats.DroppedPrefetches++
		return 0, false
	}
	done = m.reserve(bytes, now)
	m.insert(entry{id: id, bytes: bytes, readyAt: done, lastUse: now})
	m.stats.Prefetches++
	m.stats.SwapInBytes += bytes
	if m.used > m.stats.PeakBytes {
		m.stats.PeakBytes = m.used
	}
	return done, true
}

// NoteDropped counts a prefetch request abandoned before it reached the
// manager (an injected copy failure), so every dropped fetch is
// attributable in the same counter.
func (m *Manager) NoteDropped() { m.stats.DroppedPrefetches++ }

// Acquire makes every listed layer resident and locked, counting hits and
// misses, and returns the time at which all copies have completed (>= now).
// The caller must Release the same ids when the task finishes.
func (m *Manager) Acquire(ids []supernet.LayerID, bytes func(supernet.LayerID) int64, now float64) float64 {
	ready := now
	for _, id := range ids {
		e := m.lookup(id)
		switch {
		case e != nil && e.readyAt <= now:
			m.stats.Hits++
		case e != nil:
			// In flight: a prefetch was issued but has not completed.
			m.stats.Misses++
			m.stats.LatePrefetches++
			if e.readyAt > ready {
				ready = e.readyAt
			}
		default:
			// Absent: synchronous fetch, serialized on the channel.
			m.stats.Misses++
			b := bytes(id)
			if !m.makeRoom(b, now) {
				m.stats.OverCapacity++
			}
			done := m.reserve(b, now)
			e = m.insert(entry{id: id, bytes: b, readyAt: done})
			m.stats.SwapInBytes += b
			if done > ready {
				ready = done
			}
		}
		e.locked++
		e.lastUse = now
	}
	if m.used > m.stats.PeakBytes {
		m.stats.PeakBytes = m.used
	}
	m.stats.StallMs += ready - now
	return ready
}

// Release unlocks previously acquired layers.
func (m *Manager) Release(ids []supernet.LayerID, now float64) {
	for _, id := range ids {
		if e := m.lookup(id); e != nil && e.locked > 0 {
			e.locked--
			e.lastUse = now
		}
	}
}

// Evict writes the listed layers back to pinned CPU storage and frees
// their GPU residency. Locked layers are skipped. Eviction traffic
// occupies the PCIe channel (unless DuplexWriteBack) but never stalls
// compute directly.
func (m *Manager) Evict(ids []supernet.LayerID, now float64) {
	for _, id := range ids {
		if i := m.index(id); i >= 0 && m.entries[i].locked == 0 {
			m.evict(i, now)
		}
	}
}

// makeRoom evicts LRU unlocked entries until newBytes fits. Returns false
// if the capacity cannot be reached (everything resident is locked).
// Unbounded managers always report room.
//
// Victims go in ascending (lastUse, LayerID) order — a total order, since
// layers are unique — among unlocked, fully-arrived entries; in-flight
// entries are never evicted (their copy is still occupying the channel).
// An eviction changes no other entry's eligibility, so picking the least
// eligible entry afresh per victim evicts exactly the prefix a sort would.
func (m *Manager) makeRoom(newBytes int64, now float64) bool {
	if m.capacity < 0 {
		return true
	}
	for m.used+newBytes > m.capacity {
		v := -1
		for i := range m.entries {
			e := &m.entries[i]
			if e.locked != 0 || e.readyAt > now {
				continue
			}
			if v < 0 || e.lastUse < m.entries[v].lastUse ||
				e.lastUse == m.entries[v].lastUse && e.id < m.entries[v].id {
				v = i
			}
		}
		if v < 0 {
			return false
		}
		m.evict(v, now)
		m.stats.EvictionsForced++
	}
	return true
}
