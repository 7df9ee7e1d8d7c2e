package engine

import (
	"slices"
	"testing"

	"naspipe/internal/cluster"
	"naspipe/internal/csp"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
	"naspipe/internal/trace"
)

// The stage machine on its own: no goroutines, no clock. A recorder
// stands in for the driver and the test plays every other stage, feeding
// the machine message sequences and checking the actions it asks for.

type fetchReq struct{ from, k, seq int }

type sendReq struct {
	kind csp.Kind
	seq  int
}

type noteReq struct {
	seq      int
	finished bool
}

// recorder is a driver that records every action in order.
type recorder struct {
	fetches      []fetchReq
	fetchedFirst int // fetches issued before the last acquire
	acquired     []csp.Task
	released     []csp.Task
	sends        []sendReq
	notes        []noteReq
	accesses     []trace.AccessKind
}

func (r *recorder) now() float64           { return 0 }
func (r *recorder) fetch(from, k, seq int) { r.fetches = append(r.fetches, fetchReq{from, k, seq}) }
func (r *recorder) acquire(t csp.Task) float64 {
	r.acquired, r.fetchedFirst = append(r.acquired, t), len(r.fetches)
	return 0
}
func (r *recorder) release(t csp.Task) { r.released = append(r.released, t) }
func (r *recorder) send(_ int, kind csp.Kind, seq int, _ []csp.PendingBackward) {
	r.sends = append(r.sends, sendReq{kind, seq})
}
func (r *recorder) note(_, seq int, _ []supernet.LayerID, finished bool) {
	r.notes = append(r.notes, noteReq{seq, finished})
}
func (r *recorder) access(_ int, _ []supernet.LayerID, _ int, kind trace.AccessKind, _ float64) {
	r.accesses = append(r.accesses, kind)
}
func (r *recorder) emit(int, telemetry.Event) {}

// stageWorld is a dependency-dense stream: 3 choices per block, so most
// consecutive subnets share a layer.
func stageWorld(t *testing.T, d, n int) *World {
	t.Helper()
	cfg := Config{Space: supernet.NLPc3.Scaled(8, 3), Spec: cluster.Default(d), Seed: 7, NumSubnets: n}.withDefaults()
	w, err := NewWorld(cfg, PartitionBalanced)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// cspStages returns one machine per stage over a shared CSP admission.
func cspStages(t *testing.T, w *World, fx driver, tr stageTraits, window int) (*CSP, []*stage) {
	t.Helper()
	pol := NewCSP(true)
	if err := pol.init(w, nil); err != nil {
		t.Fatal(err)
	}
	ms := make([]*stage, w.D)
	for k := range ms {
		ms[k] = newStage(k, w, pol, fx, tr, window, false)
	}
	return pol, ms
}

// oracle is the test's own view of which writes are still pending,
// rendered as csp.ReferenceSchedule's arguments: a written layer leaves
// its writer's AllLayers, a finished subnet blocks nobody.
type oracle struct {
	w        *World
	k        int
	written  map[int]map[supernet.LayerID]bool
	finished map[int]bool
}

func (o *oracle) note(seq int, ids []supernet.LayerID, finished bool) {
	if o.written[seq] == nil {
		o.written[seq] = map[supernet.LayerID]bool{}
	}
	for _, id := range ids {
		o.written[seq][id] = true
	}
	if finished {
		o.finished[seq] = true
	}
}

// admit is the reference's choice over queue, with the assumed subnets
// taken as finished (Algorithm 3's lookahead).
func (o *oracle) admit(queue []int, assume ...int) int {
	frontier := 0
	for o.finished[frontier] {
		frontier++
	}
	fin := map[int]bool{}
	subs := map[int]*csp.SubnetInfo{}
	for seq := frontier; seq < len(o.w.Subnets); seq++ {
		fin[seq] = o.finished[seq] || slices.Contains(assume, seq)
		var pending []supernet.LayerID
		for _, id := range o.w.AllLayerIDs(seq) {
			if !o.written[seq][id] {
				pending = append(pending, id)
			}
		}
		subs[seq] = &csp.SubnetInfo{Seq: seq, AllLayers: pending, StageLayers: o.w.StageLayerIDs(seq, o.k)}
	}
	_, seq := csp.ReferenceSchedule(queue, fin, frontier, subs)
	return seq
}

// TestStageMachineDrivesStageZero plays stage 1 of a two-stage pipeline
// against stage 0's machine, one message at a time: stage 0 refills from
// the stream under the window, admits forwards exactly where the paper's
// Algorithm 2 would, runs ready backwards first and lowest sequence
// first, forecasts what Algorithm 3 forecasts, pushes each forward's
// context to stage 1 before acquiring its own, and retires a subnet with
// a WRITE and a finishing note.
func TestStageMachineDrivesStageZero(t *testing.T) {
	const n, window = 24, 4
	w := stageWorld(t, 2, n)
	rec := &recorder{}
	tr := stageTraits{predict: true, prefetch: true}
	pol, ms := cspStages(t, w, rec, tr, window)
	m := ms[0]
	o := &oracle{w: w, k: 0, written: map[int]map[supernet.LayerID]bool{}, finished: map[int]bool{}}

	m.refill()
	if !slices.Equal(m.fwdQ, []int{0, 1, 2, 3}) {
		t.Fatalf("initial refill queued %v, want the first %d subnets", m.fwdQ, window)
	}
	if len(rec.fetches) != 0 {
		t.Fatalf("refill prefetched %v; a forward is fetched by a push or a forecast, not on arrival", rec.fetches)
	}

	var stage1 []int // forwards handed to stage 1, whose gradients are due
	// stage 1 runs its oldest subnet's backward, noting its write, and
	// returns the gradient.
	gradient := func() {
		s := stage1[0]
		stage1 = stage1[1:]
		ids := w.StageLayerIDs(s, 1)
		m.note(s, ids, false)
		o.note(s, ids, false)
		m.arrive(csp.Backward, s, nil)
		if want := []fetchReq{{0, 0, s}}; !slices.Equal(rec.fetches, want) {
			t.Fatalf("gradient %d arrival fetched %v, want %v", s, rec.fetches, want)
		}
	}
	steps := 0
	for !m.done() {
		if steps++; steps > 10*n {
			t.Fatal("machine made no progress")
		}
		rec.fetches = rec.fetches[:0]
		if len(stage1) > 1 { // stage 1 keeps at most one subnet to itself
			gradient()
			continue
		}
		kind, idx := m.pick(true)
		if idx < 0 {
			if len(stage1) == 0 {
				t.Fatalf("stage 0 blocked with nothing in flight: queue %v", m.fwdQ)
			}
			gradient()
			continue
		}
		queue := slices.Clone(m.queue(kind))
		seq := queue[idx]
		if kind == csp.Backward {
			if seq != slices.Min(queue) {
				t.Fatalf("backward %d picked from %v, want the lowest", seq, queue)
			}
		} else {
			if len(m.bwdReady) > 0 {
				t.Fatalf("forward %d picked over ready backwards %v", seq, m.bwdReady)
			}
			if want := o.admit(queue); seq != want {
				t.Fatalf("forward admission over %v chose %d, Algorithm 2 chooses %d", queue, seq, want)
			}
		}
		rest := slices.Delete(slices.Clone(queue), idx, idx+1)
		var forecast int
		if kind == csp.Backward {
			forecast = o.admit(m.fwdQ, seq)
		} else if forecast = o.admit(rest); forecast == seq {
			forecast = -1
		}
		got := m.admit(kind, idx)
		if got != (csp.Task{Subnet: seq, Stage: 0, Kind: kind}) {
			t.Fatalf("admitted %v, picked %d%v", got, seq, kind)
		}
		var want []fetchReq
		if forecast >= 0 {
			want = append(want, fetchReq{0, 0, forecast})
		}
		if kind == csp.Forward {
			want = append(want, fetchReq{0, 1, seq}) // the push, before the acquire
		}
		if !slices.Equal(rec.fetches, want) {
			t.Fatalf("admitting %v fetched %v, want %v", got, rec.fetches, want)
		}
		if last := rec.acquired[len(rec.acquired)-1]; last != got || rec.fetchedFirst != len(want) {
			t.Fatalf("acquired %v after %d of its fetches, want %v after all %d", last, rec.fetchedFirst, got, len(want))
		}
		m.complete(got)
		if kind == csp.Forward {
			if last := rec.sends[len(rec.sends)-1]; last != (sendReq{csp.Forward, seq}) {
				t.Fatalf("forward %d sent %v", seq, last)
			}
			stage1 = append(stage1, seq)
		} else {
			if last := rec.notes[len(rec.notes)-1]; last != (noteReq{seq, true}) {
				t.Fatalf("backward %d noted %v, want a finishing note", seq, last)
			}
			o.note(seq, w.StageLayerIDs(seq, 0), true)
		}
		if want := min(n, m.bwdDone+window); m.retrieved != want {
			t.Fatalf("after %d retirements retrieved %d, window allows %d", m.bwdDone, m.retrieved, want)
		}
	}
	if len(rec.sends) != n || len(rec.notes) != n || len(rec.released) != 2*n {
		t.Fatalf("sends %d notes %d releases %d, want %d/%d/%d", len(rec.sends), len(rec.notes), len(rec.released), n, n, 2*n)
	}
	if f := pol.scheds[0].Frontier(); f != n {
		t.Fatalf("stage 0 frontier %d, want %d", f, n)
	}
}

// TestStageMachinePushTarget pins where a task's context push goes: to
// the stage that runs the subnet next, downstream for a forward and
// upstream for a backward, and nowhere past the pipeline's ends.
func TestStageMachinePushTarget(t *testing.T) {
	w := stageWorld(t, 3, 4)
	for _, tc := range []struct {
		k    int
		kind csp.Kind
		want int // -1: no push
	}{
		{0, csp.Forward, 1}, {1, csp.Forward, 2}, {2, csp.Forward, -1},
		{2, csp.Backward, 1}, {1, csp.Backward, 0}, {0, csp.Backward, -1},
	} {
		rec := &recorder{}
		_, ms := cspStages(t, w, rec, stageTraits{prefetch: true}, 12)
		m := ms[tc.k]
		m.arrive(tc.kind, 0, nil)
		rec.fetches = nil // a gradient's own arrival prefetch
		kind, idx := m.pick(true)
		if kind != tc.kind || idx != 0 {
			t.Fatalf("stage %d: picked %v at %d, want the arrived %v", tc.k, kind, idx, tc.kind)
		}
		m.admit(kind, idx)
		var want []fetchReq
		if tc.want >= 0 {
			want = []fetchReq{{tc.k, tc.want, 0}}
		}
		if !slices.Equal(rec.fetches, want) {
			t.Fatalf("stage %d %v pushed %v, want %v", tc.k, tc.kind, rec.fetches, want)
		}
	}
}

// TestStageMachineNotesApplyPerStage pins that a note reaches only the
// stage that applies it: the CSP admission keeps one scheduler per stage,
// and the goroutine plane's stages share it by touching only their own.
func TestStageMachineNotesApplyPerStage(t *testing.T) {
	w := stageWorld(t, 2, 8)
	pol, ms := cspStages(t, w, &recorder{}, stageTraits{}, 12)
	blocked := -1 // a subnet blocked on both stages by subnet 0
	for s := 1; s < len(w.Subnets) && blocked < 0; s++ {
		if pol.Blocker(0, s) == 0 && pol.Blocker(1, s) == 0 {
			blocked = s
		}
	}
	if blocked < 0 {
		t.Fatal("stream has no subnet blocked by subnet 0 on both stages")
	}
	ms[1].note(0, w.AllLayerIDs(0), true)
	if got := pol.Blocker(1, blocked); got == 0 {
		t.Fatalf("stage 1 still blocks subnet %d on subnet 0 after its note", blocked)
	}
	if got := pol.Blocker(0, blocked); got != 0 {
		t.Fatalf("stage 1's note leaked into stage 0: blocker of %d is %d", blocked, got)
	}
	if pol.scheds[0].Finished(0) || !pol.scheds[1].Finished(0) {
		t.Fatal("finished flag applied to the wrong stage")
	}
}

// TestStageMachineRefillWindow pins stage 0's in-flight window: a refill
// never holds more than window unretired subnets, and each retirement
// admits exactly one successor while the stream lasts.
func TestStageMachineRefillWindow(t *testing.T) {
	const n = 8
	w := stageWorld(t, 1, n)
	for _, window := range []int{1, 3, 12} {
		_, ms := cspStages(t, w, &recorder{}, stageTraits{}, window)
		m := ms[0]
		m.refill()
		for m.bwdDone < n {
			if want := min(n, m.bwdDone+window); m.retrieved != want {
				t.Fatalf("window %d: %d retired, %d retrieved, want %d", window, m.bwdDone, m.retrieved, want)
			}
			kind, idx := m.pick(true)
			if idx < 0 {
				t.Fatalf("window %d: nothing admissible with %v queued", window, m.fwdQ)
			}
			m.complete(m.admit(kind, idx))
		}
		if m.retrieved != n || len(m.fwdQ) != 0 {
			t.Fatalf("window %d: stream not drained (%d retrieved, queue %v)", window, m.retrieved, m.fwdQ)
		}
	}
}

// counter is a driver that only counts, so it allocates nothing.
type counter struct{ actions int }

func (c *counter) now() float64                                                   { return 0 }
func (c *counter) fetch(int, int, int)                                            { c.actions++ }
func (c *counter) acquire(csp.Task) float64                                       { c.actions++; return 0 }
func (c *counter) release(csp.Task)                                               { c.actions++ }
func (c *counter) send(int, csp.Kind, int, []csp.PendingBackward)                 { c.actions++ }
func (c *counter) note(int, int, []supernet.LayerID, bool)                        { c.actions++ }
func (c *counter) access(int, []supernet.LayerID, int, trace.AccessKind, float64) { c.actions++ }
func (c *counter) emit(int, telemetry.Event)                                      { c.actions++ }

// TestStageMachineAllocationFree pins the machine's cost: with telemetry
// off, a steady-state select → admit → complete cycle under the CSP
// admission and the predictor allocates nothing. A one-stage pipeline
// cycles the whole stream through one machine by itself.
func TestStageMachineAllocationFree(t *testing.T) {
	const n = 2048
	w := stageWorld(t, 1, n)
	fx := &counter{}
	_, ms := cspStages(t, w, fx, stageTraits{predict: true, prefetch: true}, 12)
	m := ms[0]
	m.refill()
	step := func() {
		kind, idx := m.pick(true)
		if idx < 0 {
			t.Fatal("one-stage pipeline blocked")
		}
		m.complete(m.admit(kind, idx))
	}
	for i := 0; i < 64; i++ { // past the first window: buffers at steady size
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("select → admit → complete allocates %.1f times per task", allocs)
	}
	if fx.actions == 0 {
		t.Fatal("the machine asked its driver for nothing")
	}
}
