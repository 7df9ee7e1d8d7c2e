package csp

import "naspipe/internal/rng"

// Test oracles and accessors: state the tests read back and the
// paper-literal Algorithm 2 they check the indexed scheduler against.

// Active returns the number of registered, non-eliminated subnets.
func (s *Scheduler) Active() int { return len(s.subs) }

// Finished reports whether the subnet's WRITE has completed (or has been
// eliminated as finished).
func (s *Scheduler) Finished(seq int) bool {
	sub := s.lookup(seq)
	return seq < s.frontier || sub != nil && sub.finished
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

// PendingCount returns the number of tracked blocked backwards.
func (p *Predictor) PendingCount() int { return len(p.blocked) }

// shuffled returns s in the order of r.Perm: the Fisher-Yates swaps of
// the draw, applied to s.
func shuffled(r *rng.Stream, s []int) []int {
	out := make([]int, len(s))
	for i, j := range r.Perm(len(s)) {
		out[i] = s[j]
	}
	return out
}
