package csp

import "testing"

func TestOnBackwardPredictsUnblockedForward(t *testing.T) {
	s := New(0)
	mustAdd(t, s, info(0, 1), info(1, 1), info(2, 5))
	p := NewPredictor(s)
	// Backward of 0 is about to run; afterwards subnet 1 becomes
	// schedulable and should be prefetched.
	fetches := p.OnBackward(nil, []int{1, 2}, 0, nil)
	if len(fetches) != 1 || fetches[0].Seq != 1 || fetches[0].Kind != Forward {
		t.Fatalf("fetches = %+v, want forward of subnet 1", fetches)
	}
}

func TestOnBackwardNoPredictionWhenStillBlocked(t *testing.T) {
	s := New(0)
	// Subnets 1 and 2 both blocked by 0 AND by each other; finishing 0
	// unblocks 1 (queue order) — check the case where nothing unblocks.
	mustAdd(t, s, info(0, 1), info(1, 2), info(2, 2))
	s.MarkFinished(0)
	p := NewPredictor(s)
	// Backward of some unrelated future: assume finishing 5 (not
	// registered) — queue holds 2, which is blocked by unfinished 1.
	fetches := p.OnBackward(nil, []int{2}, 5, nil)
	if len(fetches) != 0 {
		t.Fatalf("expected no fetches, got %+v", fetches)
	}
}

func TestPendingBackwardRelease(t *testing.T) {
	s := New(0)
	mustAdd(t, s, info(0, 1), info(1, 1))
	p := NewPredictor(s)
	// A later stage announces: backward of subnet 1 is pending, released
	// when forward of subnet 1 gets scheduled here.
	carried := []PendingBackward{{Seq: 1, Precedence: 1}}
	_ = p.OnBackward(nil, []int{1}, 0, carried)
	if p.PendingCount() != 1 {
		t.Fatalf("pending = %d want 1", p.PendingCount())
	}
	s.MarkFinished(0)
	// Forward of subnet 1 runs now: the pending backward must be fetched
	// and retired.
	fetches := p.OnForward(nil, []int{}, 1)
	foundBwd := false
	for _, f := range fetches {
		if f.Seq == 1 && f.Kind == Backward {
			foundBwd = true
		}
	}
	if !foundBwd {
		t.Fatalf("pending backward not fetched: %+v", fetches)
	}
	if p.PendingCount() != 0 {
		t.Fatalf("pending backward not retired: %d", p.PendingCount())
	}
}

func TestOnForwardPredictsNextForward(t *testing.T) {
	s := New(0)
	mustAdd(t, s, info(0, 1), info(1, 2), info(2, 3))
	p := NewPredictor(s)
	// Forward of 0 runs; queue still holds 1 and 2, 1 is unblocked.
	fetches := p.OnForward(nil, []int{1, 2}, 0)
	if len(fetches) != 1 || fetches[0].Seq != 1 || fetches[0].Kind != Forward {
		t.Fatalf("fetches = %+v, want forward of 1", fetches)
	}
}

func TestOnForwardDoesNotRefetchCurrent(t *testing.T) {
	s := New(0)
	mustAdd(t, s, info(0, 1))
	p := NewPredictor(s)
	fetches := p.OnForward(nil, []int{0}, 0)
	for _, f := range fetches {
		if f.Seq == 0 && f.Kind == Forward {
			t.Fatalf("predictor refetched the currently executing forward: %+v", fetches)
		}
	}
}

func TestPendingBackwardKeptUntilPrecedence(t *testing.T) {
	s := New(0)
	mustAdd(t, s, info(0, 1), info(1, 2), info(2, 3))
	p := NewPredictor(s)
	_ = p.OnBackward(nil, nil, 0, []PendingBackward{{Seq: 2, Precedence: 2}})
	// Forward of 1 runs: precedence 2 not met, record kept.
	_ = p.OnForward(nil, nil, 1)
	if p.PendingCount() != 1 {
		t.Fatalf("pending retired too early: %d", p.PendingCount())
	}
	fetches := p.OnForward(nil, nil, 2)
	if len(fetches) != 1 || fetches[0].Seq != 2 || fetches[0].Kind != Backward {
		t.Fatalf("fetches = %+v", fetches)
	}
}

func TestRetireDropsPendingRecords(t *testing.T) {
	s := New(0)
	mustAdd(t, s, info(0, 1), info(1, 2), info(2, 3))
	p := NewPredictor(s)
	_ = p.OnBackward(nil, nil, 0, []PendingBackward{
		{Seq: 1, Precedence: 1},
		{Seq: 2, Precedence: 2},
		{Seq: 1, Precedence: 0},
	})
	if p.PendingCount() != 3 {
		t.Fatalf("pending = %d want 3", p.PendingCount())
	}
	p.Retire(1) // backward of 1 executed: both its records go
	if p.PendingCount() != 1 {
		t.Fatalf("pending after retire = %d want 1", p.PendingCount())
	}
	// The surviving record still releases normally.
	fetches := p.OnForward(nil, nil, 2)
	if len(fetches) != 1 || fetches[0].Seq != 2 || fetches[0].Kind != Backward {
		t.Fatalf("fetches = %+v", fetches)
	}
	p.Retire(7) // unknown subnet: harmless
	if p.PendingCount() != 0 {
		t.Fatalf("pending = %d want 0", p.PendingCount())
	}
}

func TestPredictionAccuracyOnDrain(t *testing.T) {
	// Simulate a single-stage drain loop and measure how often the
	// predictor's forward forecast matches the next actually scheduled
	// forward. With full local knowledge the forecast is exact.
	s := New(0)
	n := 12
	for i := 0; i < n; i++ {
		mustAdd(t, s, info(i, i%3)) // heavy collisions: chains of 3
	}
	p := NewPredictor(s)
	queue := make([]int, n)
	for i := range queue {
		queue[i] = i
	}
	correct, total := 0, 0
	for len(queue) > 0 {
		qidx, qval := s.Schedule(queue)
		if qidx < 0 {
			t.Fatal("deadlock")
		}
		queue = append(queue[:qidx], queue[qidx+1:]...)
		// Predict what follows after this subnet's backward completes.
		fetches := p.OnBackward(nil, queue, qval, nil)
		s.MarkFinished(qval)
		if len(fetches) == 1 {
			_, next := s.Schedule(queue)
			total++
			if next == fetches[0].Seq {
				correct++
			}
		}
	}
	if total == 0 {
		t.Fatal("predictor never fired")
	}
	if correct != total {
		t.Fatalf("single-stage prediction accuracy %d/%d, want exact", correct, total)
	}
}
