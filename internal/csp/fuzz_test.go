package csp

import (
	"testing"

	"naspipe/internal/supernet"
)

// fuzzWorkload decodes a fuzz input into a single-stage admission
// workload: up to 12 subnets, each selecting a non-empty subset of a
// 6-layer universe (one bitmask byte per subnet). Remaining bytes drive
// the retire policy. The tiny universe forces dense layer collisions —
// the regime where admission bugs live.
func fuzzWorkload(data []byte) (masks []byte, policy []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	n := int(data[0])%12 + 1
	data = data[1:]
	masks = make([]byte, n)
	for i := range masks {
		m := byte(0x01)
		if i < len(data) {
			m = data[i] & 0x3f
			if m == 0 {
				m = 0x01
			}
		}
		masks[i] = m
	}
	if n < len(data) {
		policy = data[n:]
	}
	return masks, policy
}

// FuzzSchedulerAdmission drives a Scheduler through a full admit/retire
// lifecycle and checks the two CSP admission properties on every step:
//
//  1. Safety — no forward is admitted while an earlier unfinished subnet
//     has a pending write on one of its layers (checked directly on the
//     bitmasks, and every query differentially against the paper-literal
//     ReferenceSchedule through indexModel.check).
//  2. Liveness — the workload always drains: a Schedule scan that admits
//     nothing while nothing is in flight would be a permanent stall.
//
// A retirement delivers its notes the way the policy bytes say — once,
// twice, the finish without the writes, with layers and seqs the
// scheduler has no entry for, or one layer group ahead of the rest.
func FuzzSchedulerAdmission(f *testing.F) {
	f.Add([]byte{4, 0x03, 0x03, 0x0c, 0x30})             // two colliding pairs
	f.Add([]byte{8, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f}) // total collision chain
	f.Add([]byte{3, 0x01, 0x02, 0x04, 0xff, 0x00, 0xaa}) // disjoint + retire noise
	f.Add([]byte{12})                                    // defaulted masks
	// The index's note patterns: n-1, n masks, then policy bytes read in
	// turn as retire?/which after an admission and as the note mode.
	f.Add([]byte{4, 0x03, 0x03, 0x02, 0x03, 0x01, 0x01, 0x01})       // mode 1: every note delivered twice
	f.Add([]byte{4, 0x01, 0x06, 0x07, 0x06, 0x01, 0x03, 0x02})       // mode 2: finished out of order, layers never written
	f.Add([]byte{3, 0x01, 0x03, 0x02, 0x03, 0x01, 0x03})             // mode 3: unselected layers, unknown and eliminated seqs
	f.Add([]byte{5, 0x0f, 0x0f, 0x03, 0x0c, 0x0f, 0x01, 0x01, 0x04}) // mode 4: low layers written a turn ahead of the rest
	f.Fuzz(func(t *testing.T, data []byte) {
		masks, policy := fuzzWorkload(data)
		if masks == nil {
			t.Skip()
		}
		n := len(masks)
		s := New(0)
		m := &indexModel{all: masks, stage: masks, written: make([]byte, n), fin: make([]bool, n)}
		for seq, mask := range masks {
			ids := maskIDs(mask)
			if err := s.AddSubnet(SubnetInfo{Seq: seq, AllLayers: ids, StageLayers: ids}); err != nil {
				t.Fatalf("AddSubnet(%d): %v", seq, err)
			}
		}

		queue := make([]int, n)
		for i := range queue {
			queue[i] = i
		}
		var inflight []int // admitted forwards whose backward has not retired
		pi := 0
		nextPolicy := func() byte {
			if len(policy) == 0 {
				return 0
			}
			b := policy[pi%len(policy)]
			pi++
			return b
		}
		written := func(seq int, mask byte) {
			s.MarkWritten(seq, maskIDs(mask))
			m.markWritten(seq, mask)
		}
		finished := func(seq int) {
			s.MarkFinished(seq)
			m.markFinished(seq)
		}
		retire := func(k int) { // retire inflight[k]
			seq := inflight[k]
			mode := nextPolicy() % 5
			if low := masks[seq] & 0x07; mode == 4 && low != 0 && m.written[seq] == 0 {
				written(seq, low) // stays in flight; the rest follows on a later turn
				return
			}
			inflight = append(inflight[:k], inflight[k+1:]...)
			switch mode {
			case 1:
				written(seq, masks[seq])
				written(seq, masks[seq])
				finished(seq)
				finished(seq)
			case 2:
				finished(seq)
			case 3:
				s.MarkWritten(seq, []supernet.LayerID{99, -1})
				written(seq, 0xff)
				written(n+2, masks[seq])
				written(s.Frontier()-1, masks[seq])
				finished(n + 2)
				finished(s.Frontier() - 1)
				finished(seq)
			default:
				written(seq, masks[seq])
				finished(seq)
			}
		}

		for steps := 0; len(queue) > 0 || len(inflight) > 0; steps++ {
			if steps > 16*n+16 {
				t.Fatalf("no progress after %d steps: queue=%v inflight=%v", steps, queue, inflight)
			}
			m.check(t, s, queue, inflight[:min(2, len(inflight))])
			qi, qv := s.Schedule(queue)
			if qi >= 0 {
				// Safety: recompute the causal check from first principles.
				for w := 0; w < qv; w++ {
					if pending := masks[w] &^ m.written[w]; !m.fin[w] && pending&masks[qv] != 0 {
						t.Fatalf("admitted subnet %d while unfinished subnet %d has layers %#x to write",
							qv, w, pending&masks[qv])
					}
				}
				queue = append(queue[:qi], queue[qi+1:]...)
				inflight = append(inflight, qv)
				// Retire policy from the fuzz bytes: any in-flight subnet may
				// retire, in any order — out-of-order backwards are legal.
				if p := nextPolicy(); len(inflight) > 0 && p&1 == 1 {
					retire(int(p>>1) % len(inflight))
				}
				continue
			}
			// Nothing admissible. Liveness demands something is in flight.
			if len(inflight) == 0 {
				t.Fatalf("permanent stall: queue=%v with nothing in flight", queue)
			}
			retire(int(nextPolicy()>>1) % len(inflight))
		}
		if got := s.Frontier(); got != n {
			t.Fatalf("drained workload left frontier at %d, want %d", got, n)
		}
		if left := s.FinishedSeqs(); len(left) != 0 {
			t.Fatalf("drained workload left finished gaps %v", left)
		}
		if left := pendingWriters(t, s); left != 0 {
			t.Fatalf("drained workload left %d layer-queue entries", left)
		}
	})
}
