// Package csp implements Causal Synchronous Parallel scheduling — the
// paper's core contribution (§3, Algorithms 1–3).
//
// CSP (Definition 2) requires dependency preservation: if subnets x < y
// select the same candidate layer l, then y's accesses to l must wait for
// x's WRITE (backward + optimizer step) on l to finish. Each pipeline
// stage runs its own Scheduler instance, resolving dependencies locally
// and in a decentralized way — no external synchronization server.
//
// The scheduling policy (§3.2): backward tasks always run first (they
// retire dependencies and widen the schedulable set); forward tasks are
// chosen by SCHEDULE (Algorithm 2), which scans the queue in sequence-ID
// order and returns the first task whose stage-local layers do not collide
// with any unfinished earlier subnet. A finished-list elimination scheme
// bounds the scan: once every subnet below a sequence ID has finished,
// those subnets drop out of both the finished list and the dependency
// check.
package csp

import (
	"fmt"
	"slices"

	"naspipe/internal/supernet"
)

// SubnetInfo is what a stage's scheduler knows about one subnet: its
// sequence ID, the full set of candidate layers it activates (used when
// the subnet appears as the *earlier* side of a dependency check — with
// mirroring, a layer may sit on a different stage of the earlier subnet),
// and the layers assigned to this stage (used when the subnet is the
// *candidate* being scheduled).
type SubnetInfo struct {
	Seq         int
	AllLayers   []supernet.LayerID // every chosen layer, any stage
	StageLayers []supernet.LayerID // chosen layers on this scheduler's stage
}

// Scheduler is the per-stage CSP scheduler state: L_SN (known subnets) and
// L_f (finished subnets) of Algorithm 1, plus a per-layer queue of pending
// writers that makes Algorithm 2's membership test a look at queue heads.
type Scheduler struct {
	stage int
	// frontier: every subnet with Seq < frontier is finished and has been
	// eliminated from the dependency check (the paper's elimination
	// scheme keeping |L_f| ~ |L_q|).
	frontier int
	// subs[i] is subnet frontier+i: registration is gap-free and in
	// sequence order, so the registered, non-eliminated subnets are one
	// dense window.
	subs []subnet
	gaps int // subnets in subs already finished: backwards completed out of order
	// queues[l] lists, ascending by Seq, the registered unfinished subnets
	// that select layer l and have not written it yet. Its head is the
	// only entry an admission check has to look at: a candidate is blocked
	// on l exactly when the head is an earlier subnet.
	queues []queue

	// Scheduling-pressure counters (see Stats). A Scheduler is owned by a
	// single stage — one simulator loop or one stage goroutine — so plain
	// ints suffice; cross-stage communication happens via MarkWritten/
	// MarkFinished calls delivered to the owner, never via shared access.
	scheduleCalls int
	emptyScans    int
	// inspected counts the queue entries admission checks looked at; the
	// complexity tests pin it against stage layers × queue length.
	inspected int
}

type subnet struct {
	info     SubnetInfo
	finished bool
}

// writer is one (subnet, layer) entry of a layer's pending-writer queue.
// A subnet's entries are allocated together by AddSubnet.
type writer struct {
	seq  int
	next *writer
}

type queue struct{ head, tail *writer }

// New returns an empty scheduler for the given stage.
func New(stage int) *Scheduler { return &Scheduler{stage: stage} }

// Stage returns the stage this scheduler serves.
func (s *Scheduler) Stage() int { return s.stage }

// Frontier returns the lowest sequence ID still participating in
// dependency checks. All subnets below it are finished and eliminated.
func (s *Scheduler) Frontier() int { return s.frontier }

// Active returns the number of registered, non-eliminated subnets.
func (s *Scheduler) Active() int { return len(s.subs) }

// lookup returns the registered, non-eliminated subnet seq, or nil.
func (s *Scheduler) lookup(seq int) *subnet {
	if i := seq - s.frontier; i >= 0 && i < len(s.subs) {
		return &s.subs[i]
	}
	return nil
}

// head returns the smallest pending writer of layer l, or nil.
func (s *Scheduler) head(l supernet.LayerID) *writer {
	if uint(l) < uint(len(s.queues)) {
		return s.queues[l].head
	}
	return nil
}

// AddSubnet registers a subnet retrieved from the exploration frontend
// (Algorithm 1 line 14). Subnets must be added in sequence order with no
// gaps — the producer-consumer retrieve() contract, and what keeps every
// layer queue sorted by appending. Layer IDs are dense and non-negative.
// The scheduler keeps info's slices; the caller must not modify them.
func (s *Scheduler) AddSubnet(info SubnetInfo) error {
	if next := s.frontier + len(s.subs); info.Seq != next {
		return fmt.Errorf("csp: subnet %d registered out of order, next is %d", info.Seq, next)
	}
	entries := make([]writer, len(info.AllLayers))
	for i, l := range info.AllLayers {
		for int(l) >= len(s.queues) {
			s.queues = append(s.queues, queue{})
		}
		q := &s.queues[l]
		if q.tail != nil && q.tail.seq == info.Seq {
			continue // layer listed twice
		}
		w := &entries[i]
		w.seq = info.Seq
		if q.tail == nil {
			q.head = w
		} else {
			q.tail.next = w
		}
		q.tail = w
	}
	s.subs = append(s.subs, subnet{info: info})
	return nil
}

// MarkFinished records that the subnet's backward pass (its WRITE) has
// completed and flushed on this stage, then advances the elimination
// frontier (Algorithm 1 line 10 plus the §3.2 elimination scheme). A
// finished subnet blocks nobody, so layers it never reported written
// leave their queues here: the queues never hold a finished subnet.
func (s *Scheduler) MarkFinished(seq int) {
	sub := s.lookup(seq)
	if sub == nil || sub.finished {
		return
	}
	sub.finished = true
	s.gaps++
	s.MarkWritten(seq, sub.info.AllLayers)
	for len(s.subs) > 0 && s.subs[0].finished {
		s.subs[0] = subnet{} // drop the retained layer slices
		s.subs = s.subs[1:]
		s.frontier++
		s.gaps--
	}
}

// MarkWritten records that subnet seq's WRITE to the given layers has
// completed (the backward pass of the stage owning them finished, and —
// for mirrored layers — the update has been pushed, §4.2). Blocked stops
// considering those (layer, subnet) pairs immediately, which unblocks
// dependents at per-layer granularity: tighter than whole-subnet
// completion when two subnets' balanced partitions place a shared layer
// on different stages. Repeated, unknown and unselected (seq, layer)
// pairs are ignored.
func (s *Scheduler) MarkWritten(seq int, ids []supernet.LayerID) {
	for _, l := range ids {
		if uint(l) >= uint(len(s.queues)) {
			continue
		}
		// Walk from the head to seq's entry. The walk stops at the first
		// subnet that is not earlier, so it passes only seq's unwritten
		// predecessors on l: under CSP the in-flight window, never the
		// stream.
		q := &s.queues[l]
		var prev *writer
		w := q.head
		for w != nil && w.seq < seq {
			prev, w = w, w.next
		}
		if w == nil || w.seq != seq {
			continue
		}
		if prev == nil {
			q.head = w.next
		} else {
			prev.next = w.next
		}
		if w.next == nil {
			q.tail = prev
		}
	}
}

// Finished reports whether the subnet's WRITE has completed (or has been
// eliminated as finished).
func (s *Scheduler) Finished(seq int) bool {
	sub := s.lookup(seq)
	return seq < s.frontier || sub != nil && sub.finished
}

// Blocked reports whether scheduling subnet seq's forward on this stage
// would violate CSP: some layer of its stage partition is selected by an
// unfinished earlier subnet that has not written it. This is Algorithm
// 2's inner check (lines 4–10) with each layer's queue head replacing the
// linear scan.
func (s *Scheduler) Blocked(seq int) bool { return s.blockedAssuming(seq, nil) }

// BlockingWriter returns the smallest unfinished earlier subnet that
// blocks seq, or -1 if seq is unblocked. Used by the predictor to chain
// pending backward releases.
func (s *Scheduler) BlockingWriter(seq int) int {
	sub := s.lookup(seq)
	if sub == nil {
		return -1
	}
	min := -1
	for _, l := range sub.info.StageLayers {
		if w := s.head(l); w != nil && w.seq < seq && (min == -1 || w.seq < min) {
			min = w.seq
		}
	}
	return min
}

// Schedule is Algorithm 2: scan the queue in order and return the
// position and sequence ID of the first forward task that satisfies CSP,
// or (-1, -1) if every queued task is blocked. The queue is the stage's
// L_q; entries are subnet sequence IDs whose forward input has arrived.
func (s *Scheduler) Schedule(queue []int) (qidx, qval int) {
	s.scheduleCalls++
	for i, seq := range queue {
		if !s.Blocked(seq) {
			return i, seq
		}
	}
	if len(queue) > 0 {
		s.emptyScans++
	}
	return -1, -1
}

// Stats reports scheduling-pressure counters: how many Schedule scans ran
// and how many scanned a non-empty queue without finding an admissible
// forward (every candidate blocked by an unfinished earlier subnet).
func (s *Scheduler) Stats() (scheduleCalls, emptyScans int) {
	return s.scheduleCalls, s.emptyScans
}

// ResetStats zeroes the scheduling-pressure counters and returns the
// values they held. Callers that reuse a scheduler across run incarnations
// must call this (or snapshot-delta around Stats) at each incarnation
// boundary, so contention tables report per-incarnation pressure rather
// than a total inflated by earlier lives.
func (s *Scheduler) ResetStats() (scheduleCalls, emptyScans int) {
	scheduleCalls, emptyScans = s.scheduleCalls, s.emptyScans
	s.scheduleCalls, s.emptyScans = 0, 0
	return scheduleCalls, emptyScans
}

// ScheduleAssuming runs Schedule as if the given extra subnets were
// already finished. The predictor uses it to look one backward completion
// ahead (Algorithm 3 lines 4–9). It sits on the predictor's per-task
// admission path, so the assumption set is scanned as a slice — the
// lookahead is one or two entries — and the call performs no allocation.
func (s *Scheduler) ScheduleAssuming(queue []int, finished ...int) (qidx, qval int) {
	for i, seq := range queue {
		if !s.blockedAssuming(seq, finished) {
			return i, seq
		}
	}
	return -1, -1
}

// blockedAssuming is Blocked with the assumed subnets taken as finished:
// on each stage layer it passes over assumed entries at the head of the
// queue and stops at the first other one.
func (s *Scheduler) blockedAssuming(seq int, assume []int) bool {
	sub := s.lookup(seq)
	if sub == nil {
		// Unknown subnet: conservatively blocked; the caller has not
		// registered it yet, so its dependencies cannot be checked.
		return true
	}
	for _, l := range sub.info.StageLayers {
		for w := s.head(l); w != nil && w.seq < seq; w = w.next {
			s.inspected++
			if !slices.Contains(assume, w.seq) {
				return true
			}
		}
	}
	return false
}

// ReferenceSchedule is the paper-literal Algorithm 2, kept as an oracle
// for differential testing against the indexed implementation: nested
// loops over the queue, all earlier subnets, and all layer choices, with
// no reverse index and no elimination shortcuts beyond the frontier.
func ReferenceSchedule(queue []int, finished map[int]bool, frontier int,
	subnets map[int]*SubnetInfo) (qidx, qval int) {
	for i, seq := range queue {
		scheduled := true
		cand := subnets[seq]
		if cand == nil {
			continue
		}
	earlier:
		for wval := frontier; wval < seq; wval++ {
			if finished[wval] {
				continue
			}
			w := subnets[wval]
			if w == nil {
				continue
			}
			for _, l := range cand.StageLayers {
				for _, wl := range w.AllLayers {
					if l == wl {
						scheduled = false
						break earlier
					}
				}
			}
		}
		if scheduled {
			return i, seq
		}
	}
	return -1, -1
}

// Snapshot exposes internal state for the reference oracle and for
// debugging: a copy of the finished set and registered subnets.
func (s *Scheduler) Snapshot() (finished map[int]bool, frontier int, subnets map[int]*SubnetInfo) {
	finished = make(map[int]bool, s.gaps)
	subnets = make(map[int]*SubnetInfo, len(s.subs))
	for i := range s.subs {
		if s.subs[i].finished {
			finished[s.frontier+i] = true
		}
		info := s.subs[i].info
		subnets[s.frontier+i] = &info
	}
	return finished, s.frontier, subnets
}

// FinishedSeqs returns the sequence IDs at or above the frontier whose
// backward has completed out of order, ascending — the frontier-gap set
// a consistency cut records alongside the cursor. Seqs below the
// frontier are already folded into it and are not reported.
func (s *Scheduler) FinishedSeqs() []int {
	out := make([]int, 0, s.gaps)
	for i := 0; len(out) < s.gaps; i++ {
		if s.subs[i].finished {
			out = append(out, s.frontier+i)
		}
	}
	return out
}
