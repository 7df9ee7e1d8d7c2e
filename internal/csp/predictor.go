package csp

// Fetch is a context-prefetch request emitted by the predictor: bring the
// layers of subnet Seq's partition on this stage into GPU memory before
// the corresponding task is scheduled.
type Fetch struct {
	Seq    int
	Kind   Kind
	Reason string // human-readable provenance, for logs and tests
}

// PendingBackward describes a backward task blocked at a later pipeline
// stage because the forward pass that produces its activations has not
// arrived there yet (itself delayed by a precedent causal dependency).
// Later stages pass these records upstream with backward transfers
// (Algorithm 3 lines 10–11), so that earlier stages can prefetch the
// backward's context the moment its releasing forward is scheduled.
type PendingBackward struct {
	Seq        int // the blocked backward's subnet
	Precedence int // the forward subnet whose scheduling releases it
}

// Predictor is Algorithm 3: it forecasts the tasks most likely to be
// scheduled next on this stage and turns them into prefetch requests. The
// paper's configuration forecasts the upcoming 2 tasks; combined with the
// subnet being executed and the one being evicted this yields the ~3x
// subnet cache footprint reported in Table 2.
//
// Both call sites append to a caller-supplied slice and return it, so a
// caller reusing one buffer forecasts without allocating.
type Predictor struct {
	sched   *Scheduler
	blocked []PendingBackward // the L_blocked global of Algorithm 3
}

// NewPredictor returns a predictor bound to a stage's scheduler.
func NewPredictor(s *Scheduler) *Predictor {
	return &Predictor{sched: s}
}

// PendingCount returns the number of tracked blocked backwards.
func (p *Predictor) PendingCount() int { return len(p.blocked) }

// Retire drops every pending record for the given subnet: once its
// backward has actually executed on this stage the forecast is moot.
// OnBackward retires the backward it runs for, so records whose
// releasing forward ran before the record arrived (a carry that lost the
// pipeline race) cannot accumulate.
func (p *Predictor) Retire(seq int) {
	kept := p.blocked[:0]
	for _, b := range p.blocked {
		if b.Seq != seq {
			kept = append(kept, b)
		}
	}
	p.blocked = kept
}

// OnBackward runs before executing backward recvSeq (Algorithm 1 line 6).
// It retires the records forecasting recvSeq itself, pre-adds the
// backward to a copy of the finished list, re-runs SCHEDULE, and appends
// the forward that becomes schedulable to dst; it also records any
// pending backwards carried with the receive.
func (p *Predictor) OnBackward(dst []Fetch, queue []int, recvSeq int, carried []PendingBackward) []Fetch {
	p.Retire(recvSeq)
	// Lines 4–9: L' = L_f + recv.id; the forward SCHEDULE would now pick
	// has the highest chance to be scheduled next.
	if _, fwd := p.sched.ScheduleAssuming(queue, recvSeq); fwd >= 0 {
		dst = append(dst, Fetch{Seq: fwd, Kind: Forward,
			Reason: "forward unblocked by backward completion"})
	}
	// Lines 10–11: remember blocked backwards announced by later stages.
	p.blocked = append(p.blocked, carried...)
	return dst
}

// OnForward runs before executing forward currentSeq (Algorithm 1 line
// 21). If this forward releases a pending backward, that backward's
// context is appended to dst and the record retired; then SCHEDULE
// re-runs to forecast the next forward.
func (p *Predictor) OnForward(dst []Fetch, queue []int, currentSeq int) []Fetch {
	// Lines 13–15.
	kept := p.blocked[:0]
	for _, b := range p.blocked {
		if b.Precedence == currentSeq {
			dst = append(dst, Fetch{Seq: b.Seq, Kind: Backward,
				Reason: "backward released by this forward"})
		} else {
			kept = append(kept, b)
		}
	}
	p.blocked = kept
	// Lines 16–18.
	if _, fwd := p.sched.Schedule(queue); fwd >= 0 && fwd != currentSeq {
		dst = append(dst, Fetch{Seq: fwd, Kind: Forward,
			Reason: "next schedulable forward"})
	}
	return dst
}
