package csp

import (
	"testing"
	"testing/quick"

	"naspipe/internal/partition"
	"naspipe/internal/rng"
	"naspipe/internal/supernet"
)

// info builds a SubnetInfo whose stage layers equal all layers (single
// stage view) from plain ints.
func info(seq int, layerIDs ...int) SubnetInfo {
	ids := make([]supernet.LayerID, len(layerIDs))
	for i, l := range layerIDs {
		ids[i] = supernet.LayerID(l)
	}
	return SubnetInfo{Seq: seq, AllLayers: ids, StageLayers: ids}
}

func mustAdd(t *testing.T, s *Scheduler, infos ...SubnetInfo) {
	t.Helper()
	for _, in := range infos {
		if err := s.AddSubnet(in); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScheduleUnblockedFirst(t *testing.T) {
	s := New(0)
	mustAdd(t, s,
		info(0, 1, 2),
		info(1, 2, 3), // shares layer 2 with subnet 0
		info(2, 4, 5), // independent
	)
	// Subnet 0 is unfinished: subnet 1 is blocked, subnet 2 is not.
	qidx, qval := s.Schedule([]int{1, 2})
	if qidx != 1 || qval != 2 {
		t.Fatalf("Schedule = (%d,%d), want (1,2)", qidx, qval)
	}
	// Subnet 0 itself has no earlier subnets and is schedulable.
	if qidx, qval = s.Schedule([]int{0, 1, 2}); qidx != 0 || qval != 0 {
		t.Fatalf("Schedule = (%d,%d), want (0,0)", qidx, qval)
	}
}

func TestScheduleAllBlocked(t *testing.T) {
	s := New(0)
	mustAdd(t, s, info(0, 1), info(1, 1), info(2, 1))
	qidx, qval := s.Schedule([]int{1, 2})
	if qidx != -1 || qval != -1 {
		t.Fatalf("Schedule = (%d,%d), want (-1,-1)", qidx, qval)
	}
}

func TestMarkFinishedUnblocks(t *testing.T) {
	s := New(0)
	mustAdd(t, s, info(0, 1), info(1, 1))
	if !s.Blocked(1) {
		t.Fatal("subnet 1 should be blocked by subnet 0")
	}
	s.MarkFinished(0)
	if s.Blocked(1) {
		t.Fatal("subnet 1 should be unblocked after subnet 0 finishes")
	}
}

func TestStageLocalityOfBlocking(t *testing.T) {
	// The candidate's check only covers its *stage* layers, but earlier
	// subnets are checked across *all* their layers (mirroring-aware).
	s := New(0)
	a := SubnetInfo{Seq: 0,
		AllLayers:   []supernet.LayerID{1, 2},
		StageLayers: []supernet.LayerID{1}}
	b := SubnetInfo{Seq: 1,
		AllLayers:   []supernet.LayerID{2, 9},
		StageLayers: []supernet.LayerID{9}} // stage layers don't collide
	c := SubnetInfo{Seq: 2,
		AllLayers:   []supernet.LayerID{2, 8},
		StageLayers: []supernet.LayerID{2}} // stage layer 2 collides with a's AllLayers
	mustAdd(t, s, a, b, c)
	if s.Blocked(1) {
		t.Fatal("subnet 1 stage layers don't collide; must be schedulable")
	}
	if !s.Blocked(2) {
		t.Fatal("subnet 2's stage layer 2 collides with unfinished subnet 0")
	}
}

func TestFrontierElimination(t *testing.T) {
	s := New(0)
	for i := 0; i < 6; i++ {
		mustAdd(t, s, info(i, i)) // disjoint layers
	}
	// Finish out of order: 1 then 0 -> frontier jumps to 2.
	s.MarkFinished(1)
	if s.Frontier() != 0 {
		t.Fatalf("frontier moved early: %d", s.Frontier())
	}
	s.MarkFinished(0)
	if s.Frontier() != 2 {
		t.Fatalf("frontier = %d want 2", s.Frontier())
	}
	if s.Active() != 4 {
		t.Fatalf("active = %d want 4 (two eliminated)", s.Active())
	}
	// Eliminated subnets still report finished.
	if !s.Finished(0) || !s.Finished(1) || s.Finished(2) {
		t.Fatal("Finished wrong after elimination")
	}
	// Adding below the frontier is rejected.
	if err := s.AddSubnet(info(1, 7)); err == nil {
		t.Fatal("expected error adding subnet below frontier")
	}
}

func TestAddOutOfOrderRejected(t *testing.T) {
	// The layer queues are sorted because registration is: a duplicate, a
	// gap and a step back are all refused, and refused without effect.
	s := New(0)
	mustAdd(t, s, info(0, 1), info(1, 1))
	for _, seq := range []int{1, 0, 3, -1} {
		if err := s.AddSubnet(info(seq, 1)); err == nil {
			t.Fatalf("AddSubnet(%d) after 0,1: expected an error", seq)
		}
	}
	if s.Active() != 2 || s.BlockingWriter(1) != 0 {
		t.Fatalf("a refused AddSubnet changed state: active %d, writer %d", s.Active(), s.BlockingWriter(1))
	}
	mustAdd(t, s, info(2, 1))
}

func TestUnknownSubnetConservativelyBlocked(t *testing.T) {
	s := New(0)
	if !s.Blocked(5) {
		t.Fatal("unregistered subnet must be blocked")
	}
}

func TestScheduleAssuming(t *testing.T) {
	s := New(0)
	mustAdd(t, s, info(0, 1), info(1, 1), info(2, 2))
	// Without assumption, only 2 schedulable.
	if _, qval := s.Schedule([]int{1, 2}); qval != 2 {
		t.Fatalf("got %d want 2", qval)
	}
	// Assuming 0 finished, 1 becomes schedulable and wins by order.
	if _, qval := s.ScheduleAssuming([]int{1, 2}, 0); qval != 1 {
		t.Fatalf("got %d want 1", qval)
	}
}

func TestBlockingWriter(t *testing.T) {
	s := New(0)
	mustAdd(t, s, info(0, 1), info(1, 1), info(2, 1))
	if w := s.BlockingWriter(2); w != 0 {
		t.Fatalf("BlockingWriter(2) = %d want 0 (smallest unfinished)", w)
	}
	s.MarkFinished(0)
	if w := s.BlockingWriter(2); w != 1 {
		t.Fatalf("BlockingWriter(2) = %d want 1", w)
	}
	s.MarkFinished(1)
	if w := s.BlockingWriter(2); w != -1 {
		t.Fatalf("BlockingWriter(2) = %d want -1", w)
	}
}

func TestMarkFinishedIdempotent(t *testing.T) {
	s := New(0)
	mustAdd(t, s, info(0, 1), info(1, 2))
	s.MarkFinished(0)
	s.MarkFinished(0) // repeated, also already eliminated
	if s.Frontier() != 1 {
		t.Fatalf("frontier %d want 1", s.Frontier())
	}
}

// buildStageInfos derives per-stage SubnetInfos the way the engine will:
// balanced partitions over a real supernet.
func buildStageInfos(sn *supernet.Supernet, subs []supernet.Subnet, d, stage int) []SubnetInfo {
	out := make([]SubnetInfo, len(subs))
	for i, sub := range subs {
		p := partition.Balanced(partition.SubnetCosts(nil, sn, sub), d)
		lo, hi := p.Blocks(stage)
		var stageIDs []supernet.LayerID
		for b := lo; b < hi; b++ {
			stageIDs = append(stageIDs, sn.Space.ID(b, sub.Choices[b]))
		}
		out[i] = SubnetInfo{Seq: sub.Seq, AllLayers: sub.LayerIDs(sn.Space), StageLayers: stageIDs}
	}
	return out
}

func TestRealSupernetScheduling(t *testing.T) {
	sn := supernet.Build(supernet.NLPc3)
	subs := supernet.Sample(supernet.NLPc3, 7, 10)
	s := New(2)
	for _, in := range buildStageInfos(sn, subs, 4, 2) {
		if err := s.AddSubnet(in); err != nil {
			t.Fatal(err)
		}
	}
	queue := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	// Drain: schedule, mark finished, repeat. CSP must always be able to
	// schedule the lowest unfinished subnet (it has no unfinished
	// predecessors), so the drain always completes.
	done := 0
	for done < len(subs) {
		qidx, qval := s.Schedule(queue)
		if qidx < 0 {
			t.Fatalf("deadlock with %d done", done)
		}
		queue = append(queue[:qidx], queue[qidx+1:]...)
		s.MarkFinished(qval)
		done++
	}
	if s.Active() != 0 {
		t.Fatalf("%d subnets not eliminated after drain", s.Active())
	}
}

// Property: differential test — the indexed Schedule agrees with the
// paper-literal ReferenceSchedule on random states. A finish releases
// the earlier writers of the finished subnet's layers (MarkWritten's
// rule), so the reference runs over indexModel's view rather than the
// Snapshot, which omits per-layer releases.
func TestQuickScheduleMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(10)
		layersPer := 1 + r.Intn(4)
		universe := 1 + r.Intn(8)
		s, m := New(0), &indexModel{}
		for i := 0; i < n; i++ {
			ids := make([]int, layersPer)
			var mask byte
			for j := range ids {
				ids[j] = r.Intn(universe)
				mask |= 1 << ids[j]
			}
			if err := s.AddSubnet(info(i, ids...)); err != nil {
				return false
			}
			m.all, m.stage = append(m.all, mask), append(m.stage, mask)
			m.written, m.fin = append(m.written, 0), append(m.fin, false)
		}
		// Finish a random prefix-biased subset.
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				s.MarkFinished(i)
				m.markFinished(i)
			}
		}
		// Queue: the unfinished subnets in a shuffled order.
		var queue []int
		for i := 0; i < n; i++ {
			if !s.Finished(i) {
				queue = append(queue, i)
			}
		}
		queue = shuffled(r, queue)
		fin, frontier, subs := m.oracle()
		ri, rv := ReferenceSchedule(queue, fin, frontier, subs)
		gi, gv := s.Schedule(queue)
		return ri == gi && rv == gv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Schedule never returns a task with an unfinished
// earlier-subnet layer collision (dependency preservation, CSP
// Definition 2).
func TestQuickSchedulePreservesDependencies(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(12)
		s := New(0)
		all := make([][]int, n)
		for i := 0; i < n; i++ {
			ids := make([]int, 1+r.Intn(3))
			for j := range ids {
				ids[j] = r.Intn(6)
			}
			all[i] = ids
			if err := s.AddSubnet(info(i, ids...)); err != nil {
				return false
			}
		}
		finished := map[int]bool{}
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				s.MarkFinished(i)
				finished[i] = true
			}
		}
		var queue []int
		for i := 0; i < n; i++ {
			if !finished[i] {
				queue = append(queue, i)
			}
		}
		_, qval := s.Schedule(queue)
		if qval < 0 {
			// All blocked is acceptable only if the head of the
			// unfinished order is genuinely blocked, which cannot happen:
			// the lowest unfinished subnet has no unfinished
			// predecessors. So queue empty is the only legal case.
			return len(queue) == 0
		}
		// Verify no collision with unfinished earlier subnets by brute
		// force over the original layer lists.
		for w := 0; w < qval; w++ {
			if finished[w] {
				continue
			}
			for _, lw := range all[w] {
				for _, lc := range all[qval] {
					if lw == lc {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the lowest unfinished subnet is never blocked — CSP cannot
// deadlock.
func TestQuickNoDeadlock(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(10)
		s := New(0)
		for i := 0; i < n; i++ {
			ids := make([]int, 1+r.Intn(3))
			for j := range ids {
				ids[j] = r.Intn(4) // dense collisions
			}
			if err := s.AddSubnet(info(i, ids...)); err != nil {
				return false
			}
		}
		for done := 0; done < n; done++ {
			lowest := s.Frontier()
			if s.Blocked(lowest) {
				return false
			}
			s.MarkFinished(lowest)
		}
		return s.Active() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedule(b *testing.B) {
	s, queue := benchScheduler(b, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(queue)
	}
}

func TestMarkWrittenUnblocksPerLayer(t *testing.T) {
	s := New(0)
	// Subnet 0 uses layers 1 and 2; subnet 1's stage layers hit layer 1
	// only; subnet 2's hit layer 2 only.
	mustAdd(t, s,
		SubnetInfo{Seq: 0, AllLayers: []supernet.LayerID{1, 2}, StageLayers: []supernet.LayerID{1, 2}},
		SubnetInfo{Seq: 1, AllLayers: []supernet.LayerID{1}, StageLayers: []supernet.LayerID{1}},
		SubnetInfo{Seq: 2, AllLayers: []supernet.LayerID{2}, StageLayers: []supernet.LayerID{2}},
	)
	if !s.Blocked(1) || !s.Blocked(2) {
		t.Fatal("both dependents should start blocked")
	}
	// Subnet 0's write to layer 1 completes (e.g. on a later stage) while
	// its write to layer 2 is still pending.
	s.MarkWritten(0, []supernet.LayerID{1})
	if s.Blocked(1) {
		t.Fatal("subnet 1 should unblock after layer 1's write")
	}
	if !s.Blocked(2) {
		t.Fatal("subnet 2 must stay blocked on layer 2")
	}
	s.MarkWritten(0, []supernet.LayerID{2})
	if s.Blocked(2) {
		t.Fatal("subnet 2 should unblock after layer 2's write")
	}
	// Full finish still advances the frontier.
	s.MarkFinished(0)
	if s.Frontier() != 1 {
		t.Fatalf("frontier %d want 1", s.Frontier())
	}
}

func TestMarkWrittenIdempotentAndUnknown(t *testing.T) {
	s := New(0)
	mustAdd(t, s, info(0, 3))
	s.MarkWritten(0, []supernet.LayerID{3})
	s.MarkWritten(0, []supernet.LayerID{3, 99}) // repeated + unknown layer
	s.MarkFinished(0)
	if s.Active() != 0 {
		t.Fatal("elimination failed after MarkWritten")
	}
}

func TestEliminationBoundsState(t *testing.T) {
	// The §3.2 elimination scheme must keep the scheduler's live state
	// proportional to the in-flight window, not the stream length —
	// this is what keeps Algorithm 2's cost "<0.01s" over long runs.
	s := New(0)
	const stream = 500
	const window = 16
	next := 0
	finishedUpTo := 0
	r := rng.New(3)
	for finishedUpTo < stream {
		for next < stream && next-finishedUpTo < window {
			mustAdd(t, s, info(next, r.Intn(8), r.Intn(8)))
			next++
		}
		// Finish a random one of the in-flight window; the frontier only
		// advances on the lowest, as in a real pipeline drain.
		s.MarkFinished(finishedUpTo + r.Intn(next-finishedUpTo))
		s.MarkFinished(finishedUpTo)
		finishedUpTo = s.Frontier()
		if s.Active() > 2*window {
			t.Fatalf("scheduler state grew to %d (> 2x window) at frontier %d", s.Active(), s.Frontier())
		}
		// Two layers per subnet: the queues hold at most that per active
		// subnet, whatever the stream has already pushed through them.
		if pending := pendingWriters(t, s); pending > 2*s.Active() {
			t.Fatalf("layer queues hold %d entries for %d active subnets", pending, s.Active())
		}
	}
	if s.Active() != 0 {
		t.Fatalf("%d subnets leaked after full drain", s.Active())
	}
	if pending := pendingWriters(t, s); pending != 0 {
		t.Fatalf("%d layer-queue entries leaked after full drain", pending)
	}
}

func TestScheduleInspectsQueueHeadsOnly(t *testing.T) {
	// §3.2's complexity analysis puts a scheduler call at |L_q| × the
	// stage's layers, independent of the stream. Both executors register
	// the whole stream up front, so that has to hold with thousands of
	// future subnets queued on every layer behind the window: count the
	// queue entries a call looks at, mid-stream.
	const n = 4096
	d := newStream(t, streamInfos(n))
	if got := d.retire(n / 2); got != n/2 {
		t.Fatalf("drive retired %d of %d", got, n/2)
	}
	stageLayers := 0
	for _, seq := range d.queue {
		stageLayers += len(d.infos[seq].StageLayers)
	}
	if len(d.queue) != streamWindow || stageLayers == 0 {
		t.Fatalf("mid-stream queue %v with %d stage layers", d.queue, stageLayers)
	}
	s := d.s
	s.inspected = 0
	s.Schedule(d.queue)
	if s.inspected > stageLayers {
		t.Fatalf("Schedule inspected %d queue entries for %d (queued subnet, stage layer) pairs", s.inspected, stageLayers)
	}
	// The lookahead passes over its assumed subnets and stops at the next
	// entry: at most one more inspection per assumption and pair.
	s.inspected = 0
	s.ScheduleAssuming(d.queue, d.running[0], d.running[1])
	if s.inspected > 3*stageLayers {
		t.Fatalf("ScheduleAssuming inspected %d queue entries for %d pairs and 2 assumptions", s.inspected, stageLayers)
	}
}
