// Package trace records the parameter access interleaving of a training
// run: one READ event per (subnet, layer) at forward-pass start and one
// WRITE event per (subnet, layer) at backward-pass completion.
//
// The trace is the bridge between the performance plane and the numeric
// plane: the engine emits it while simulating a schedule, the replay
// trainer consumes it to produce actual weights, and the analysis helpers
// here extract the per-layer access orders the paper prints in Table 4
// ("2F-2B-5F-5B-7F-7B") and decide whether a schedule is equivalent to
// sequential training (the inter-subnet reproducibility criterion, §2.1).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"naspipe/internal/supernet"
)

// AccessKind distinguishes parameter reads from writes.
type AccessKind int

// Access kinds.
const (
	Read  AccessKind = iota // forward pass: parameter READ
	Write                   // backward pass + optimizer step: parameter WRITE
)

func (k AccessKind) String() string {
	if k == Read {
		return "F"
	}
	return "B"
}

// Event is one parameter access.
type Event struct {
	Order  int // global total order (engine emission order)
	TimeMs float64
	Layer  supernet.LayerID
	Subnet int
	Stage  int
	Kind   AccessKind
}

// Trace is an ordered sequence of accesses.
type Trace struct {
	Events []Event
}

// Append adds an event, assigning the next order number.
func (t *Trace) Append(timeMs float64, layer supernet.LayerID, subnet, stage int, kind AccessKind) {
	t.Events = append(t.Events, Event{
		Order: len(t.Events), TimeMs: timeMs, Layer: layer,
		Subnet: subnet, Stage: stage, Kind: kind,
	})
}

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Layers returns the distinct layers accessed, ascending.
func (t *Trace) Layers() []supernet.LayerID {
	seen := map[supernet.LayerID]bool{}
	for _, e := range t.Events {
		seen[e.Layer] = true
	}
	out := make([]supernet.LayerID, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LayerEvents returns the layer's accesses in trace order.
func (t *Trace) LayerEvents(layer supernet.LayerID) []Event {
	var out []Event
	for _, e := range t.Events {
		if e.Layer == layer {
			out = append(out, e)
		}
	}
	return out
}

// LayerOrder renders the access/update order of one layer in the paper's
// Table 4 notation, e.g. "2F-2B-5F-5B-7F-7B".
func (t *Trace) LayerOrder(layer supernet.LayerID) string {
	evs := t.LayerEvents(layer)
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = fmt.Sprintf("%d%v", e.Subnet, e.Kind)
	}
	return strings.Join(parts, "-")
}

// SequentialOrder returns the order string a strictly sequential execution
// would produce for subnets accessing the layer: nF-nB ascending by n.
func SequentialOrder(subnets []int) string {
	sorted := append([]int(nil), subnets...)
	sort.Ints(sorted)
	parts := make([]string, 0, 2*len(sorted))
	for _, s := range sorted {
		parts = append(parts, fmt.Sprintf("%dF", s), fmt.Sprintf("%dB", s))
	}
	return strings.Join(parts, "-")
}

// Violation describes a departure from sequential-equivalent ordering on
// one layer.
type Violation struct {
	Layer  supernet.LayerID
	Detail string
}

// FirstViolation returns the first per-layer ordering violation found, or
// nil if the trace is sequential-equivalent: for every layer the access
// sequence equals sequential training's, subnets in ascending order, each
// layer seeing its F strictly before its B, and no interleaving between
// subnets (xF-xB-yF-yB... with x<y), the inter-subnet reproducibility
// condition of §2.1. Layers are checked in ascending ID order for
// determinism.
func (t *Trace) FirstViolation() *Violation {
	perLayer := map[supernet.LayerID][]Event{}
	for _, e := range t.Events {
		perLayer[e.Layer] = append(perLayer[e.Layer], e)
	}
	for _, l := range t.Layers() {
		evs := perLayer[l]
		// Expect: pairs (sF, sB) with strictly increasing s.
		if len(evs)%2 != 0 {
			return &Violation{l, fmt.Sprintf("odd number of accesses (%d)", len(evs))}
		}
		prev := -1
		for i := 0; i < len(evs); i += 2 {
			f, b := evs[i], evs[i+1]
			if f.Kind != Read || b.Kind != Write {
				return &Violation{l, fmt.Sprintf("access %d/%d not an F,B pair: %v,%v", i, i+1, f.Kind, b.Kind)}
			}
			if f.Subnet != b.Subnet {
				return &Violation{l, fmt.Sprintf("interleaved subnets %d and %d", f.Subnet, b.Subnet)}
			}
			if f.Subnet <= prev {
				return &Violation{l, fmt.Sprintf("subnet %d accessed after %d", f.Subnet, prev)}
			}
			prev = f.Subnet
		}
	}
	return nil
}

// Equal reports whether two traces contain identical event sequences
// (ignoring timestamps — schedules on different cluster sizes reach the
// same order at different times).
func (t *Trace) Equal(o *Trace) bool {
	if len(t.Events) != len(o.Events) {
		return false
	}
	for i := range t.Events {
		a, b := t.Events[i], o.Events[i]
		if a.Layer != b.Layer || a.Subnet != b.Subnet || a.Kind != b.Kind {
			return false
		}
	}
	return true
}

// PerLayerEqual reports whether two traces agree on the access order of
// every layer — the relation that determines numeric equality of results
// even when globally the traces interleave independent layers differently.
func (t *Trace) PerLayerEqual(o *Trace) bool {
	if len(t.Events) != len(o.Events) {
		return false
	}
	// Thread t's events by layer: next[j] is the position of the access to
	// the same layer that follows event j (-1: none). Built back to front,
	// which leaves cursor[l] at layer l's first access.
	next := make([]int32, len(t.Events))
	cursor := make(map[supernet.LayerID]int32)
	for j := len(t.Events) - 1; j >= 0; j-- {
		l := t.Events[j].Layer
		next[j] = -1
		if n, ok := cursor[l]; ok {
			next[j] = n
		}
		cursor[l] = int32(j)
	}
	// Each of o's events must be the next unmatched access of its layer in
	// t. The lengths are equal, so when all match none of t's is left over.
	for _, e := range o.Events {
		j, ok := cursor[e.Layer]
		if !ok || j < 0 {
			return false
		}
		if a := t.Events[j]; a.Subnet != e.Subnet || a.Kind != e.Kind {
			return false
		}
		cursor[e.Layer] = next[j]
	}
	return true
}
