// Chrome trace-event export: one Perfetto-loadable JSON file per run.
//
// Mapping: pid = pipeline stage, tid = virtual worker within the stage
// (compute / prefetcher / modeled PCIe). Task spans become "X" complete
// events — a preempted task shows as split slices, a PCIe stall as a
// nested slice inside its task — scheduler and cache point events become
// "i" instants, and cross-stage activation/gradient transfers become
// "s"/"f" flow arrows from the sending slice to the receiving one.
//
// Open the file at https://ui.perfetto.dev or chrome://tracing.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the trace-event JSON array. Fields follow
// the Trace Event Format spec; timestamps and durations are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int32          `json:"pid"`
	Tid   int32          `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func workerName(tid int32) string {
	switch tid {
	case WorkerStage:
		return "worker"
	case WorkerMem:
		return "prefetcher"
	case WorkerPCIe:
		return "pcie"
	}
	return fmt.Sprintf("worker-%d", tid)
}

// spanName labels a slice: tasks by kind+subnet ("F12", "B12"), stalls
// and everything else by op.
func spanName(ev Event) string {
	if ev.Op.Category() == "task" && ev.Subnet >= 0 {
		return fmt.Sprintf("%s%d", KindString(ev.Kind), ev.Subnet)
	}
	if ev.Op == OpCacheStall {
		return "stall"
	}
	return ev.Op.String()
}

// spanKey matches a PhaseEnd to its open PhaseBegin: same slice family on
// the same (pid, tid). Task start/resume pairs with preempt/complete;
// stall begin pairs with stall end.
type spanKey struct {
	cat    string
	subnet int32
	kind   int8
}

func keyOf(ev Event) spanKey {
	return spanKey{cat: ev.Op.Category(), subnet: ev.Subnet, kind: ev.Kind}
}

// WriteChromeTrace renders the event stream as a Chrome trace-event JSON
// array. Events are globally sorted by timestamp, so per-thread
// timestamps are monotonic by construction; unmatched span ends are
// dropped (a truncated ring can lose a begin), unclosed begins are
// closed at the last observed timestamp, and a flow arrow missing either
// end is dropped, so a crashed or cancelled run still loads.
func WriteChromeTrace(w io.Writer, events []Event) error {
	evs := make([]Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TsNs < evs[j].TsNs })

	var out []chromeEvent
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	// Metadata: name processes (stages) and threads (workers).
	type pt struct{ pid, tid int32 }
	seenPid := map[int32]bool{}
	seenPT := map[pt]bool{}
	for _, ev := range evs {
		if !seenPid[ev.Stage] {
			seenPid[ev.Stage] = true
			out = append(out, chromeEvent{Name: "process_name", Ph: "M", Pid: ev.Stage, Tid: 0,
				Args: map[string]any{"name": fmt.Sprintf("stage %d", ev.Stage)}})
			out = append(out, chromeEvent{Name: "process_sort_index", Ph: "M", Pid: ev.Stage, Tid: 0,
				Args: map[string]any{"sort_index": ev.Stage}})
		}
		k := pt{ev.Stage, ev.Worker}
		if !seenPT[k] {
			seenPT[k] = true
			out = append(out, chromeEvent{Name: "thread_name", Ph: "M", Pid: ev.Stage, Tid: ev.Worker,
				Args: map[string]any{"name": workerName(ev.Worker)}})
		}
	}

	// Pair spans into X events; pass instants and flows through.
	type open struct {
		ev  Event
		key spanKey
	}
	stacks := map[pt][]open{}
	lastTs := int64(0)
	emitX := func(b Event, endNs int64) {
		dur := us(endNs) - us(b.TsNs)
		if dur < 0 {
			dur = 0
		}
		out = append(out, chromeEvent{
			Name: spanName(b), Cat: b.Op.Category(), Ph: "X",
			Ts: us(b.TsNs), Dur: dur, Pid: b.Stage, Tid: b.Worker,
			Args: argsOf(b),
		})
	}
	// Flow arrows are drawn in matched pairs only: a crashed or cancelled
	// run can leave a transfer sent and never received, and a truncated
	// ring can lose the send.
	flows := map[int64][2]int{} // flow id → {sends, receives} left to draw
	for _, ev := range evs {
		if ev.Phase == PhaseFlowBegin || ev.Phase == PhaseFlowEnd {
			n := flows[ev.Arg]
			n[ev.Phase-PhaseFlowBegin]++
			flows[ev.Arg] = n
		}
	}
	for id, n := range flows {
		m := min(n[0], n[1])
		flows[id] = [2]int{m, m}
	}
	for _, ev := range evs {
		if ev.TsNs > lastTs {
			lastTs = ev.TsNs
		}
		k := pt{ev.Stage, ev.Worker}
		if ev.Phase == PhaseFlowBegin || ev.Phase == PhaseFlowEnd {
			n := flows[ev.Arg]
			if n[ev.Phase-PhaseFlowBegin] == 0 {
				continue
			}
			n[ev.Phase-PhaseFlowBegin]--
			flows[ev.Arg] = n
		}
		switch ev.Phase {
		case PhaseBegin:
			stacks[k] = append(stacks[k], open{ev, keyOf(ev)})
		case PhaseEnd:
			st := stacks[k]
			want := keyOf(ev)
			for i := len(st) - 1; i >= 0; i-- {
				if st[i].key == want {
					emitX(st[i].ev, ev.TsNs)
					stacks[k] = append(st[:i], st[i+1:]...)
					break
				}
			}
		case PhaseInstant:
			out = append(out, chromeEvent{
				Name: ev.Op.String(), Cat: ev.Op.Category(), Ph: "i",
				Ts: us(ev.TsNs), Pid: ev.Stage, Tid: ev.Worker, Scope: "t",
				Args: argsOf(ev),
			})
		case PhaseFlowBegin:
			out = append(out, chromeEvent{
				Name: "transfer", Cat: "flow", Ph: "s",
				Ts: us(ev.TsNs), Pid: ev.Stage, Tid: ev.Worker,
				ID: fmt.Sprintf("%#x", ev.Arg), Args: argsOf(ev),
			})
		case PhaseFlowEnd:
			out = append(out, chromeEvent{
				Name: "transfer", Cat: "flow", Ph: "f", BP: "e",
				Ts: us(ev.TsNs), Pid: ev.Stage, Tid: ev.Worker,
				ID: fmt.Sprintf("%#x", ev.Arg), Args: argsOf(ev),
			})
		}
	}
	// Close anything still open (cancelled or truncated run).
	for _, st := range stacks {
		for _, o := range st {
			emitX(o.ev, lastTs)
		}
	}

	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := out[i].Ph == "M", out[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return out[i].Ts < out[j].Ts
	})

	// One JSON array, one event per line: loadable by Perfetto, diffable
	// by humans.
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ce := range out {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		bs, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		if _, err := w.Write(bs); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

func argsOf(ev Event) map[string]any {
	args := map[string]any{"op": ev.Op.String()}
	if ev.Subnet >= 0 {
		args["subnet"] = ev.Subnet
	}
	if ev.Kind != KindNone {
		args["kind"] = KindString(ev.Kind)
	}
	if ev.Arg != 0 {
		args["arg"] = ev.Arg
	}
	return args
}

// TraceStats summarizes a validated Chrome trace file.
type TraceStats struct {
	Complete  int // "X" slices
	Instant   int // "i" points
	FlowBegin int // "s" arrows
	FlowEnd   int // "f" arrows
	Stages    int // distinct pids
	TaskX     int // "X" slices in category "task"
}

// ValidateChromeTrace parses a trace written by WriteChromeTrace and
// checks the exporter's invariants: well-formed JSON, at least one
// complete event, non-negative durations, per-(pid,tid) monotonic
// timestamps in file order, and balanced flow arrows.
func ValidateChromeTrace(r io.Reader) (TraceStats, error) {
	var raw []chromeEvent
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return TraceStats{}, fmt.Errorf("telemetry: trace is not a JSON event array: %w", err)
	}
	var st TraceStats
	type pt struct{ pid, tid int32 }
	lastTs := map[pt]float64{}
	pids := map[int32]bool{}
	flows := map[string]int{}
	for i, ce := range raw {
		if ce.Ph == "M" {
			continue
		}
		pids[ce.Pid] = true
		k := pt{ce.Pid, ce.Tid}
		if prev, ok := lastTs[k]; ok && ce.Ts < prev {
			return st, fmt.Errorf("telemetry: event %d (pid %d tid %d) goes back in time: %v < %v",
				i, ce.Pid, ce.Tid, ce.Ts, prev)
		}
		lastTs[k] = ce.Ts
		switch ce.Ph {
		case "X":
			if ce.Dur < 0 {
				return st, fmt.Errorf("telemetry: event %d has negative duration %v", i, ce.Dur)
			}
			st.Complete++
			if ce.Cat == "task" {
				st.TaskX++
			}
		case "i":
			st.Instant++
		case "s":
			st.FlowBegin++
			flows[ce.ID]++
		case "f":
			st.FlowEnd++
			flows[ce.ID]--
		default:
			return st, fmt.Errorf("telemetry: event %d has unknown phase %q", i, ce.Ph)
		}
	}
	st.Stages = len(pids)
	if st.Complete == 0 {
		return st, fmt.Errorf("telemetry: trace has no complete events")
	}
	for id, n := range flows {
		if n != 0 {
			return st, fmt.Errorf("telemetry: flow %s is unbalanced (%+d)", id, n)
		}
	}
	return st, nil
}
