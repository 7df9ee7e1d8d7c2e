package memctx

import (
	"math"
	"sort"
	"testing"

	"naspipe/internal/rng"
	"naspipe/internal/supernet"
)

// refManager is the manager as it was before its entry table went dense:
// a map of heap entries, and a makeRoom that collects every eligible
// entry and sorts it by (lastUse, LayerID). It is the oracle the
// selection-based makeRoom is held to, step by step.
type refManager struct {
	duplex    bool
	capacity  int64
	bandwidth float64
	pcieFree  float64
	used      int64
	entries   map[supernet.LayerID]*refEntry
	stats     Stats
}

type refEntry struct {
	bytes   int64
	readyAt float64
	lastUse float64
	locked  int
}

func newRef(capacity int64, bandwidth float64, duplex bool) *refManager {
	return &refManager{duplex: duplex, capacity: capacity, bandwidth: bandwidth,
		entries: make(map[supernet.LayerID]*refEntry)}
}

func (m *refManager) reserve(bytes int64, now float64) float64 {
	start := now
	if m.pcieFree > start {
		start = m.pcieFree
	}
	m.pcieFree = start + float64(bytes)/m.bandwidth
	return m.pcieFree
}

func (m *refManager) peak() {
	if m.used > m.stats.PeakBytes {
		m.stats.PeakBytes = m.used
	}
}

func (m *refManager) Prefetch(id supernet.LayerID, bytes int64, now float64) (float64, bool) {
	if _, ok := m.entries[id]; ok {
		return 0, false
	}
	if !m.makeRoom(bytes, now) {
		m.stats.DroppedPrefetches++
		return 0, false
	}
	done := m.reserve(bytes, now)
	m.entries[id] = &refEntry{bytes: bytes, readyAt: done, lastUse: now}
	m.used += bytes
	m.stats.Prefetches++
	m.stats.SwapInBytes += bytes
	m.peak()
	return done, true
}

func (m *refManager) Acquire(ids []supernet.LayerID, bytes func(supernet.LayerID) int64, now float64) float64 {
	ready := now
	for _, id := range ids {
		e := m.entries[id]
		switch {
		case e != nil && e.readyAt <= now:
			m.stats.Hits++
		case e != nil:
			m.stats.Misses++
			m.stats.LatePrefetches++
			if e.readyAt > ready {
				ready = e.readyAt
			}
		default:
			m.stats.Misses++
			b := bytes(id)
			if !m.makeRoom(b, now) {
				m.stats.OverCapacity++
			}
			done := m.reserve(b, now)
			m.entries[id] = &refEntry{bytes: b, readyAt: done}
			m.used += b
			m.stats.SwapInBytes += b
			if done > ready {
				ready = done
			}
		}
		e = m.entries[id]
		e.locked++
		e.lastUse = now
	}
	m.peak()
	m.stats.StallMs += ready - now
	return ready
}

func (m *refManager) Release(ids []supernet.LayerID, now float64) {
	for _, id := range ids {
		if e := m.entries[id]; e != nil && e.locked > 0 {
			e.locked--
			e.lastUse = now
		}
	}
}

func (m *refManager) Evict(ids []supernet.LayerID, now float64) {
	for _, id := range ids {
		if e := m.entries[id]; e != nil && e.locked == 0 {
			m.evictEntry(id, e, now)
		}
	}
}

func (m *refManager) evictEntry(id supernet.LayerID, e *refEntry, now float64) {
	delete(m.entries, id)
	m.used -= e.bytes
	m.stats.SwapOutBytes += e.bytes
	if !m.duplex {
		m.reserve(e.bytes, now)
	}
}

func (m *refManager) makeRoom(newBytes int64, now float64) bool {
	if m.capacity < 0 || m.used+newBytes <= m.capacity {
		return true
	}
	type cand struct {
		id supernet.LayerID
		e  *refEntry
	}
	var cands []cand
	for id, e := range m.entries {
		if e.locked == 0 && e.readyAt <= now {
			cands = append(cands, cand{id, e})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].e.lastUse != cands[j].e.lastUse {
			return cands[i].e.lastUse < cands[j].e.lastUse
		}
		return cands[i].id < cands[j].id
	})
	for _, c := range cands {
		if m.used+newBytes <= m.capacity {
			break
		}
		m.evictEntry(c.id, c.e, now)
		m.stats.EvictionsForced++
	}
	return m.used+newBytes <= m.capacity
}

// evictionLayers is the id range the differential drive touches: small,
// so capacity pressure and repeated layers are the common case.
const evictionLayers = 12

func layerBytes(id supernet.LayerID) int64 { return 500 * (1 + int64(id)%3) }

// driveEviction decodes ops into a Prefetch/Acquire/Release/Evict
// sequence, runs it on the manager and on the oracle, and reports the
// first step after which their returns, Stats, Used or resident set
// differ. The clock advances on only one op code in eight, so most steps
// share their now with the one before: lastUse ties are the rule.
func driveEviction(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) < 2 {
		return
	}
	capacity := int64(ops[0]%8) * 500 // 0 = a manager that can hold nothing
	if ops[0]&0x80 != 0 {
		capacity = -1
	}
	duplex := ops[1]&1 != 0
	m, ref := New(capacity, bw), newRef(capacity, bw, duplex)
	m.DuplexWriteBack = duplex
	now := 0.0
	var held [][]supernet.LayerID // acquired sets not yet released
	for step := 2; step+1 < len(ops); step += 2 {
		op, arg := ops[step], ops[step+1]
		id := supernet.LayerID(arg % evictionLayers)
		switch op % 8 {
		case 0:
			now += float64(arg%4) / 2
		case 1, 2:
			d1, ok1 := m.Prefetch(id, layerBytes(id), now)
			d2, ok2 := ref.Prefetch(id, layerBytes(id), now)
			if d1 != d2 || ok1 != ok2 {
				t.Fatalf("step %d: Prefetch(%d) = (%v, %v), oracle (%v, %v)", step, id, d1, ok1, d2, ok2)
			}
		case 3, 4:
			set := []supernet.LayerID{id}
			if n := int(op/8) % 3; n > 0 {
				set = append(set, (id+supernet.LayerID(n))%evictionLayers)
			}
			r1, r2 := m.Acquire(set, layerBytes, now), ref.Acquire(set, layerBytes, now)
			if r1 != r2 {
				t.Fatalf("step %d: Acquire(%v) ready %v, oracle %v", step, set, r1, r2)
			}
			held = append(held, set)
		case 5:
			if len(held) > 0 {
				i := int(arg) % len(held)
				m.Release(held[i], now)
				ref.Release(held[i], now)
				held = append(held[:i], held[i+1:]...)
			}
		case 6:
			m.Evict([]supernet.LayerID{id}, now)
			ref.Evict([]supernet.LayerID{id}, now)
		case 7:
			all := make([]supernet.LayerID, 0, evictionLayers)
			for l := 0; l < evictionLayers; l++ {
				all = append(all, supernet.LayerID(l))
			}
			m.Evict(all, now)
			ref.Evict(all, now)
		}
		if m.Stats() != ref.stats {
			t.Fatalf("step %d (op %d): stats\n%+v\noracle\n%+v", step, op%8, m.Stats(), ref.stats)
		}
		if m.Used() != ref.used {
			t.Fatalf("step %d: used %d, oracle %d", step, m.Used(), ref.used)
		}
		for l := 0; l < evictionLayers; l++ {
			id := supernet.LayerID(l)
			e := ref.entries[id]
			for _, at := range []float64{now, math.Inf(1)} {
				if got, want := m.Resident(id, at), e != nil && e.readyAt <= at; got != want {
					t.Fatalf("step %d: Resident(%d, %v) = %v, oracle %v", step, id, at, got, want)
				}
			}
		}
	}
}

// FuzzEvictionOrder holds the manager's makeRoom to the sort-based
// oracle: same victims, same channel bookings, same counters, after
// every step of any operation sequence.
func FuzzEvictionOrder(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 1, 2, 1, 3, 1, 4, 3, 5, 0, 2, 1, 6, 1, 7})
	f.Add([]byte{4, 1, 3, 0, 11, 1, 3, 2, 5, 0, 1, 4, 1, 5, 0, 3, 1, 8, 6, 2, 1, 9})
	f.Add([]byte{2, 0, 3, 1, 3, 2, 1, 3, 5, 0, 5, 1, 1, 4, 7, 0, 1, 5})
	f.Add([]byte{0x85, 0, 1, 1, 3, 2, 6, 1, 1, 3})
	f.Fuzz(driveEviction)
}

// TestEvictionOrderMatchesOracle runs the fuzz target's property on
// seeded random sequences, so plain `go test` covers long ones.
func TestEvictionOrderMatchesOracle(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 300; i++ {
		ops := make([]byte, 2+2*(20+r.Intn(200)))
		for j := range ops {
			ops[j] = byte(r.Intn(256))
		}
		driveEviction(t, ops)
	}
}

// TestOverCapacityPrefetchDoesNotAllocate: a steady-state prefetch that
// must evict first — the simulator's common case under a tight cache —
// allocates nothing.
func TestOverCapacityPrefetchDoesNotAllocate(t *testing.T) {
	m := New(4000, bw)
	now, next := 0.0, 0
	prefetch := func() {
		now += 2 // every earlier copy has landed, so each call evicts
		m.Prefetch(supernet.LayerID(next%16), 1000, now)
		next++
	}
	for i := 0; i < 64; i++ {
		prefetch()
	}
	evictions := m.Stats().EvictionsForced
	if n := testing.AllocsPerRun(200, prefetch); n != 0 {
		t.Fatalf("over-capacity Prefetch allocates %v times, want 0", n)
	}
	if m.Stats().EvictionsForced == evictions {
		t.Fatal("the measured prefetches evicted nothing")
	}
}
