// Telemetry glue shared by both execution planes: emission helpers for
// the simulated engine (simulated-nanosecond timestamps) and the span
// reconstruction that turns a caller's captured event stream into
// TaskSpans — how a caller of the concurrent plane, which has no
// discrete-event clock and fills no Result.Spans, feeds the same
// timeline/figure renderers as the simulator.
package engine

import (
	"sort"

	"naspipe/internal/csp"
	"naspipe/internal/telemetry"
)

// simNs converts the simulator's millisecond clock to event-stream
// nanoseconds.
func simNs(ms float64) int64 { return int64(ms * 1e6) }

// telKind maps a task kind onto the bus's dependency-free encoding.
func telKind(k csp.Kind) int8 {
	if k == csp.Backward {
		return telemetry.KindBackward
	}
	return telemetry.KindForward
}

// telSpanSwitch performs the span bookkeeping at a dispatch boundary:
// ends the previously running exec's span as a preemption if a different
// exec takes the stage, and opens (or reopens) the picked exec's span.
func (e *Engine) telSpanSwitch(st *stageState, pick *execState) {
	if e.tel == nil || pick == st.cur {
		return
	}
	if st.cur != nil && st.cur.spanOpen && !st.cur.done() {
		st.m.event(telemetry.OpTaskPreempt, telemetry.PhaseEnd, st.cur.t.Subnet, st.cur.t.Kind, 0)
		st.cur.spanOpen = false
	}
	if !pick.spanOpen {
		op := telemetry.OpTaskStart
		if pick.everStarted {
			op = telemetry.OpTaskResume
		}
		st.m.event(op, telemetry.PhaseBegin, pick.t.Subnet, pick.t.Kind, 0)
		pick.spanOpen = true
		pick.everStarted = true
	}
	st.cur = pick
}

// SpansFromEvents reconstructs per-task timeline spans from a telemetry
// stream: a span stretches from the task's first start to its completion
// (preemption gaps stay inside the extent, exactly like the simulator's
// admission-to-completion spans), and task-attributed cache stalls
// accumulate into StallMs: the modelled stall in Arg, as in the
// simulator's spans (the wait really paid is the stall span's extent).
// Events that never complete (cancelled run, ring truncation) are dropped.
// The result is ordered by start time, then stage, subnet, and kind, so
// repeated reconstructions of the same stream are deterministic.
func SpansFromEvents(evs []telemetry.Event) []TaskSpan {
	type key struct {
		stage, subnet int32
		kind          int8
	}
	type acc struct {
		start, end float64
		hasStart   bool
		hasEnd     bool
		stallMs    float64
	}
	accs := map[key]*acc{}
	get := func(k key) *acc {
		a := accs[k]
		if a == nil {
			a = &acc{}
			accs[k] = a
		}
		return a
	}
	for _, ev := range evs {
		if ev.Subnet < 0 {
			continue
		}
		k := key{ev.Stage, ev.Subnet, ev.Kind}
		ms := float64(ev.TsNs) / 1e6
		switch {
		case ev.Op == telemetry.OpTaskStart && ev.Phase == telemetry.PhaseBegin:
			a := get(k)
			if !a.hasStart || ms < a.start {
				a.start = ms
				a.hasStart = true
			}
		case ev.Op == telemetry.OpTaskComplete && ev.Phase == telemetry.PhaseEnd:
			a := get(k)
			if !a.hasEnd || ms > a.end {
				a.end = ms
				a.hasEnd = true
			}
		case ev.Op == telemetry.OpCacheStall && ev.Phase != telemetry.PhaseBegin:
			get(k).stallMs += float64(ev.Arg) / 1e6
		}
	}
	var spans []TaskSpan
	for k, a := range accs {
		if !a.hasStart || !a.hasEnd || a.end < a.start {
			continue
		}
		kind := csp.Forward
		if k.kind == telemetry.KindBackward {
			kind = csp.Backward
		}
		spans = append(spans, TaskSpan{
			Task:    csp.Task{Subnet: int(k.subnet), Stage: int(k.stage), Kind: kind},
			StartMs: a.start, EndMs: a.end, StallMs: a.stallMs,
		})
	}
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.StartMs != b.StartMs {
			return a.StartMs < b.StartMs
		}
		if a.Task.Stage != b.Task.Stage {
			return a.Task.Stage < b.Task.Stage
		}
		if a.Task.Subnet != b.Task.Subnet {
			return a.Task.Subnet < b.Task.Subnet
		}
		return a.Task.Kind < b.Task.Kind
	})
	return spans
}
