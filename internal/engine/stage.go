// The stage machine both execution planes run (see the package doc). It
// cannot tell time: every effect goes through its driver, and where the
// two drivers' stages still behave differently, the difference is a
// stageTraits field the driver derives, never a setting.
package engine

import (
	"slices"

	"naspipe/internal/csp"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
	"naspipe/internal/trace"
)

// driver is the clock a stage machine runs on: the effects the machine
// asks for, each applied at the driver's notion of now.
type driver interface {
	// now is the driver's clock in milliseconds (0 on the wall clock,
	// which timestamps its own effects).
	now() float64
	// fetch prefetches subnet seq's stage-k context on behalf of stage
	// from: its own (k = from) or a neighbour's (a context push).
	fetch(from, k, seq int)
	// acquire brings task t's context in and starts its compute; it
	// returns when, on the driver's clock, the context is resident.
	acquire(t csp.Task) float64
	// release lets go of a finished task's context; a backward's leaves
	// the stage.
	release(t csp.Task)
	// send hands subnet seq's activation (Forward) to stage from+1, or its
	// gradient (Backward) with the carried records to stage from−1.
	send(from int, kind csp.Kind, seq int, carried []csp.PendingBackward)
	// note tells other stages that subnet seq's WRITE of ids has flushed
	// on from (finished: from is stage 0, the subnet is retired): the
	// simulator tells every stage at once, the goroutine plane only the
	// stages that run each layer's next reader.
	note(from, seq int, ids []supernet.LayerID, finished bool)
	// access records subnet seq's accesses of ids on stage k at time at.
	access(k int, ids []supernet.LayerID, seq int, kind trace.AccessKind, at float64)
	// emit publishes one of stage k's telemetry events.
	emit(k int, ev telemetry.Event)
}

// stageTraits are the behaviours the two drivers' stages differ in. Each
// is derived — from the policy's Traits on the simulator (desTraits),
// from MemPlaneConfig on the goroutine plane (ccTraits) — because a
// pinned output depends on it; DESIGN.md's drift table gives the
// evidence. None can be set by a user.
type stageTraits struct {
	predict bool // Algorithm 3 forecasts at every admission
	// prefetch: a gradient's arrival prefetches its backward's context,
	// and an admission pushes the context of the stage that runs the
	// subnet next, before acquiring its own.
	prefetch bool
	carry    bool // pending-backward records ride gradients upstream
}

// desTraits derives the simulator's stage traits from the policy's.
func desTraits(t Traits) stageTraits {
	return stageTraits{
		predict:  t.UsePredictor,
		prefetch: t.PrefetchOnArrival && t.CacheFactor > 0,
	}
}

// ccTraits derives the goroutine plane's stage traits from its memory
// plane: a cache turns prefetching on, the predictor adds forecasts and
// carries.
func ccTraits(m MemPlaneConfig) stageTraits {
	return stageTraits{predict: m.Predictor, prefetch: m.Enabled(), carry: m.Predictor}
}

// stage is one pipeline stage's machine. Only its driver calls it — on
// the goroutine plane, only the stage's own goroutine.
type stage struct {
	k      int
	w      *World
	pol    Policy
	fx     driver
	tr     stageTraits
	tel    bool // telemetry on: emit events through fx
	window int  // stage 0: at most this many subnets in flight

	fwdQ      []int // L_q: subnets whose forward input has arrived
	bwdReady  []int // subnets whose backward input has arrived
	retrieved int   // stage 0: subnets pulled from the exploration stream
	fwdDone   int
	bwdDone   int

	fetches []csp.Fetch // Algorithm 3's forecasts, one reused buffer

	// With tr.carry: the records each gradient carried in, and the
	// blocked forwards already announced upstream.
	carried   map[int][]csp.PendingBackward
	announced map[int]bool

	// The OpSchedDelay episode last reported: blocked head and writer.
	delayHead, delayWriter int
}

func newStage(k int, w *World, pol Policy, fx driver, tr stageTraits, window int, tel bool) *stage {
	m := &stage{k: k, w: w, pol: pol, fx: fx, tr: tr, window: window, tel: tel, delayHead: -1, delayWriter: -1}
	if tr.carry {
		m.carried = make(map[int][]csp.PendingBackward)
		m.announced = make(map[int]bool)
	}
	return m
}

// done reports whether every subnet's forward and backward ran here.
func (m *stage) done() bool {
	n := len(m.w.Subnets)
	return m.fwdDone >= n && m.bwdDone >= n
}

// queue returns the candidate list tasks of kind wait in.
func (m *stage) queue(kind csp.Kind) []int {
	if kind == csp.Backward {
		return m.bwdReady
	}
	return m.fwdQ
}

// event emits one stage-scoped event about subnet seq (a local sequence;
// the event carries the global one).
func (m *stage) event(op telemetry.Op, ph telemetry.Phase, seq int, kind csp.Kind, arg int64) {
	if !m.tel {
		return
	}
	m.fx.emit(m.k, telemetry.Event{
		Op: op, Phase: ph,
		Stage: int32(m.k), Worker: telemetry.WorkerStage,
		Subnet: int32(m.w.SeqBase + seq), Kind: telKind(kind), Arg: arg,
	})
}

// flow emits one end of a cross-stage transfer arrow; from is the
// sending stage on both ends.
func (m *stage) flow(op telemetry.Op, ph telemetry.Phase, seq int, kind csp.Kind, from int) {
	if m.tel {
		m.event(op, ph, seq, kind, telemetry.FlowID(telKind(kind), int32(m.w.SeqBase+seq), int32(from)))
	}
}

// refill keeps stage 0's forward queue stocked from the exploration
// stream while fewer than window subnets are in flight (retrieve() of
// Algorithm 1). Drivers call it once at the start; complete calls it when
// a backward retires a subnet, the only event that opens the window.
func (m *stage) refill() {
	for m.retrieved < len(m.w.Subnets) && m.retrieved-m.bwdDone < m.window {
		m.fwdQ = append(m.fwdQ, m.retrieved)
		m.event(telemetry.OpTaskAdmit, telemetry.PhaseInstant, m.retrieved, csp.Forward, 0)
		m.retrieved++
	}
}

// arrive queues a task whose input landed: an activation from stage k−1
// (Forward), or a gradient from stage k+1 (Backward) with the
// pending-backward records it carried, which prefetches the backward's
// context. A forward's context needs no arrival fetch: the upstream
// stage pushed it when it admitted the forward.
func (m *stage) arrive(kind csp.Kind, seq int, carried []csp.PendingBackward) {
	if kind == csp.Forward {
		m.fwdQ = append(m.fwdQ, seq)
		m.flow(telemetry.OpTransferRecv, telemetry.PhaseFlowEnd, seq, kind, m.k-1)
		m.event(telemetry.OpTaskAdmit, telemetry.PhaseInstant, seq, kind, 0)
		return
	}
	m.bwdReady = append(m.bwdReady, seq)
	if m.tr.carry && len(carried) > 0 {
		m.carried[seq] = append(m.carried[seq], carried...)
	}
	m.flow(telemetry.OpTransferRecv, telemetry.PhaseFlowEnd, seq, kind, m.k+1)
	m.event(telemetry.OpTaskAdmit, telemetry.PhaseInstant, seq, kind, 0)
	if m.tr.prefetch {
		m.fx.fetch(m.k, m.k, seq)
	}
}

// note applies a write release to this stage's admission.
func (m *stage) note(seq int, ids []supernet.LayerID, finished bool) {
	m.pol.Note(m.k, seq, ids, finished)
}

// pick chooses the stage's next task without taking it: a backward the
// policy releases first (backwards retire dependencies and widen every
// stage's admissible set), else — when fwdOK — the forward it admits.
// idx is the task's position in queue(kind), -1 when nothing is
// admissible. A held-back forward queue is reported once per episode.
func (m *stage) pick(fwdOK bool) (kind csp.Kind, idx int) {
	now := m.fx.now()
	if idx = m.pol.SelectBackward(m.k, m.bwdReady, now); idx >= 0 || !fwdOK {
		return csp.Backward, idx
	}
	idx = m.pol.SelectForward(m.k, m.fwdQ, now)
	if idx < 0 && m.tel && len(m.fwdQ) > 0 {
		head := m.fwdQ[0]
		writer := m.pol.Blocker(m.k, head)
		if head != m.delayHead || writer != m.delayWriter {
			m.delayHead, m.delayWriter = head, writer
			if writer >= 0 {
				writer += m.w.SeqBase
			}
			m.event(telemetry.OpSchedDelay, telemetry.PhaseInstant, head, csp.Forward, int64(writer))
		}
	}
	return csp.Forward, idx
}

// admit takes the task pick chose and starts it: forecasts, the context
// push, the acquire, and a forward's READs.
func (m *stage) admit(kind csp.Kind, idx int) csp.Task {
	q := m.queue(kind)
	seq := q[idx]
	q = slices.Delete(q, idx, idx+1)
	if kind == csp.Backward {
		m.bwdReady = q
	} else {
		m.fwdQ = q
		m.delayHead, m.delayWriter = -1, -1
	}
	m.event(telemetry.OpSchedAdmit, telemetry.PhaseInstant, seq, kind, int64(idx))
	if m.tr.predict {
		if kind == csp.Backward {
			carried := m.carried[seq]
			delete(m.carried, seq)
			m.fetches = m.pol.PredictBackward(m.k, m.fwdQ, seq, carried, m.fetches[:0])
		} else {
			m.fetches = m.pol.PredictForward(m.k, m.fwdQ, seq, m.fetches[:0])
		}
		for _, f := range m.fetches {
			m.fx.fetch(m.k, m.k, f.Seq)
		}
	}
	next := m.k + 1 // the stage that runs this subnet next
	if kind == csp.Backward {
		next = m.k - 1
	}
	if m.tr.prefetch && next >= 0 && next < m.w.D {
		m.fx.fetch(m.k, next, seq)
	}
	t := csp.Task{Subnet: seq, Stage: m.k, Kind: kind}
	at := m.fx.acquire(t)
	if kind == csp.Forward {
		m.fx.access(m.k, m.w.stageIDs[seq][m.k], seq, trace.Read, at)
	}
	return t
}

// complete finishes task t once its compute is over: the context goes,
// then a forward hands its activation on (at the last stage the loss is
// computed and its backward is ready at once); a backward WRITEs, notes
// the release to its own stage and through the driver to the others, and
// returns its gradient upstream — or, on stage 0, retires the subnet and
// refills.
func (m *stage) complete(t csp.Task) {
	seq, now := t.Subnet, m.fx.now()
	m.fx.release(t)
	if t.Kind == csp.Forward {
		m.pol.OnForwardDone(m.k, seq, now)
		m.fwdDone++
		if m.k < m.w.D-1 {
			m.flow(telemetry.OpTransferSend, telemetry.PhaseFlowBegin, seq, csp.Forward, m.k)
			m.fx.send(m.k, csp.Forward, seq, nil)
		} else {
			m.bwdReady = append(m.bwdReady, seq)
			m.event(telemetry.OpTaskAdmit, telemetry.PhaseInstant, seq, csp.Backward, 0)
		}
		return
	}
	ids := m.w.stageIDs[seq][m.k]
	m.fx.access(m.k, ids, seq, trace.Write, now)
	m.pol.OnBackwardDone(m.k, seq, now)
	m.bwdDone++
	finished := m.k == 0
	m.note(seq, ids, finished)
	m.fx.note(m.k, seq, ids, finished)
	if finished {
		m.refill()
		return
	}
	m.flow(telemetry.OpTransferSend, telemetry.PhaseFlowBegin, seq, csp.Backward, m.k)
	m.fx.send(m.k, csp.Backward, seq, m.carry())
}

// carry collects the pending-backward records a gradient takes upstream
// (Algorithm 3 lines 10–11): every queued forward currently blocked by an
// unfinished earlier writer, each announced at most once.
func (m *stage) carry() []csp.PendingBackward {
	if !m.tr.carry {
		return nil
	}
	var out []csp.PendingBackward
	for _, q := range m.fwdQ {
		if m.announced[q] {
			continue
		}
		if w := m.pol.Blocker(m.k, q); w >= 0 {
			m.announced[q] = true
			out = append(out, csp.PendingBackward{Seq: q, Precedence: w})
		}
	}
	return out
}
