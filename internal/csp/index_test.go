package csp

import (
	"slices"
	"testing"

	"naspipe/internal/rng"
	"naspipe/internal/supernet"
)

// indexModel is the test-side truth the per-layer writer queues are
// compared with: what was registered, which (subnet, layer) writes count
// as done, and which subnets finished, as bitmasks over an 8-layer
// universe. It knows nothing about queues — ReferenceSchedule, run over
// the model's view, is the oracle.
//
// The model follows MarkWritten's contract: a note for a layer on which
// its subnet is still pending also releases every earlier selector of
// that layer. With exact set, it follows the rule before targeted notes
// instead — a note releases its own (subnet, layer) pairs only — which
// TestThroughReleaseMatchesExactOnOrderedWrites holds equal to the
// contract wherever each layer's writes arrive in sequence order.
type indexModel struct {
	all, stage, written []byte // indexed by seq
	fin                 []bool
	exact               bool
}

func maskIDs(m byte) []supernet.LayerID {
	var out []supernet.LayerID
	for b := 0; b < 8; b++ {
		if m&(1<<b) != 0 {
			out = append(out, supernet.LayerID(b))
		}
	}
	return out
}

func (m *indexModel) frontier() int {
	f := 0
	for f < len(m.fin) && m.fin[f] {
		f++
	}
	return f
}

func (m *indexModel) known(seq int) bool { return seq >= 0 && seq < len(m.fin) }

// pending reports the layers of mask on which subnet seq still has a
// queue entry: registered, unfinished, selected and not yet released.
// Notes about subnets the scheduler has never seen, or has eliminated,
// carry no information; the model drops them like the scheduler does.
func (m *indexModel) pending(seq int, mask byte) byte {
	if !m.known(seq) || m.fin[seq] {
		return 0
	}
	return mask & m.all[seq] &^ m.written[seq]
}

// markWritten releases seq's pending layers in mask and, under the
// contract, every earlier selector's entry on them.
func (m *indexModel) markWritten(seq int, mask byte) {
	if m.exact {
		if m.known(seq) {
			m.written[seq] |= mask
		}
		return
	}
	if p := m.pending(seq, mask); p != 0 {
		for w := 0; w <= seq; w++ {
			m.written[w] |= p
		}
	}
}

// markFinished retires seq; under the contract its layers release
// through it as a note for all of them would.
func (m *indexModel) markFinished(seq int) {
	if !m.known(seq) {
		return
	}
	if !m.exact {
		m.markWritten(seq, m.all[seq])
	}
	m.fin[seq] = true
}

// oracle renders the model as ReferenceSchedule's arguments. A written
// layer leaves the writer's AllLayers: the reference then sees exactly
// the (subnet, layer) pairs that still have a pending WRITE. Assumed
// subnets count as finished, releasing their pending layers as
// markFinished would, but the frontier stays where it is, as
// ScheduleAssuming leaves it.
func (m *indexModel) oracle(assume ...int) (map[int]bool, int, map[int]*SubnetInfo) {
	written := m.written
	if len(assume) > 0 {
		v := *m
		v.written = slices.Clone(m.written)
		v.fin = slices.Clone(m.fin)
		for _, a := range assume {
			v.markFinished(a)
		}
		written = v.written
	}
	fr := m.frontier()
	fin := map[int]bool{}
	subs := map[int]*SubnetInfo{}
	for seq := fr; seq < len(m.fin); seq++ {
		if m.fin[seq] {
			fin[seq] = true
		}
		subs[seq] = &SubnetInfo{Seq: seq,
			AllLayers:   maskIDs(m.all[seq] &^ written[seq]),
			StageLayers: maskIDs(m.stage[seq])}
	}
	for _, a := range assume {
		fin[a] = true
	}
	return fin, fr, subs
}

// scheduleAssuming is ScheduleAssuming from the model: the first queued
// subnet the reference admits once the assumed subnets below it have
// finished. An assumption at or above a candidate releases nothing for
// it — under CSP no subnet can finish before an earlier one that shares
// its layers has written them.
func (m *indexModel) scheduleAssuming(queue, assume []int) (qidx, qval int) {
	for i, seq := range queue {
		var below []int
		for _, a := range assume {
			if a < seq {
				below = append(below, a)
			}
		}
		fin, fr, subs := m.oracle(below...)
		if ri, _ := ReferenceSchedule([]int{seq}, fin, fr, subs); ri == 0 {
			return i, seq
		}
	}
	return -1, -1
}

// blockingWriter is BlockingWriter from first principles: the smallest
// unfinished earlier subnet with a pending WRITE on one of seq's stage
// layers — the smallest across layers, not the first layer's.
func (m *indexModel) blockingWriter(seq int) int {
	if fr := m.frontier(); m.known(seq) && seq >= fr {
		for w := fr; w < seq; w++ {
			if !m.fin[w] && m.all[w]&^m.written[w]&m.stage[seq] != 0 {
				return w
			}
		}
	}
	return -1
}

// check compares every query of the scheduler with the model at one
// state: Schedule and ScheduleAssuming on the queue, Blocked and
// BlockingWriter on each of its entries, and the bookkeeping accessors.
func (m *indexModel) check(t *testing.T, s *Scheduler, queue, assume []int) {
	t.Helper()
	fin, fr, subs := m.oracle()
	if s.Frontier() != fr || s.Active() != len(subs) {
		t.Fatalf("frontier %d active %d, model says %d and %d", s.Frontier(), s.Active(), fr, len(subs))
	}
	var gaps []int
	for seq := -1; seq <= len(m.fin)+1; seq++ {
		if want := seq < fr || fin[seq]; s.Finished(seq) != want {
			t.Fatalf("Finished(%d) = %v, model says %v", seq, !want, want)
		}
		if fin[seq] {
			gaps = append(gaps, seq)
		}
	}
	if got := s.FinishedSeqs(); !slices.Equal(got, gaps) {
		t.Fatalf("FinishedSeqs = %v, model says %v", got, gaps)
	}
	gi, gv := s.Schedule(queue)
	if ri, rv := ReferenceSchedule(queue, fin, fr, subs); gi != ri || gv != rv {
		t.Fatalf("Schedule(%v) = (%d,%d), reference (%d,%d)", queue, gi, gv, ri, rv)
	}
	for _, seq := range queue {
		ri, _ := ReferenceSchedule([]int{seq}, fin, fr, subs)
		if got := s.Blocked(seq); got != (ri < 0) {
			t.Fatalf("Blocked(%d) = %v, reference %v", seq, got, ri < 0)
		}
		if got, want := s.BlockingWriter(seq), m.blockingWriter(seq); got != want {
			t.Fatalf("BlockingWriter(%d) = %d, model says %d", seq, got, want)
		}
	}
	for n := 1; n <= len(assume); n++ {
		gi, gv := s.ScheduleAssuming(queue, assume[:n]...)
		if ri, rv := m.scheduleAssuming(queue, assume[:n]); gi != ri || gv != rv {
			t.Fatalf("ScheduleAssuming(%v, %v) = (%d,%d), reference (%d,%d)", queue, assume[:n], gi, gv, ri, rv)
		}
	}
	// The snapshot the other differential tests feed the reference agrees
	// with the model on everything but per-layer writes, which it omits.
	sfin, sfr, ssubs := s.Snapshot()
	if sfr != fr || len(sfin) != len(fin) || len(ssubs) != len(subs) {
		t.Fatalf("Snapshot: frontier %d, %d finished, %d subnets; model %d, %d, %d",
			sfr, len(sfin), len(ssubs), fr, len(fin), len(subs))
	}
}

// pendingWriters counts the entries of every layer queue and checks the
// index's invariants on the way: each queue strictly ascending by seq,
// holding only registered unfinished subnets, its tail the last entry.
func pendingWriters(t *testing.T, s *Scheduler) int {
	t.Helper()
	n := 0
	for l, q := range s.queues {
		var last *writer
		for w := q.head; w != nil; last, w = w, w.next {
			if last != nil && w.seq <= last.seq {
				t.Fatalf("layer %d queue not ascending: %d after %d", l, w.seq, last.seq)
			}
			if sub := s.lookup(w.seq); sub == nil || sub.finished {
				t.Fatalf("layer %d queue holds subnet %d, which is finished or unknown", l, w.seq)
			}
			n++
		}
		if q.tail != last {
			t.Fatalf("layer %d queue tail is not its last entry", l)
		}
	}
	return n
}

// indexOp is one step of a differential case.
type indexOp struct {
	kind       byte // 'a' AddSubnet, 'w' MarkWritten, 'f' MarkFinished
	seq        int  // w, f
	all, stage byte // a: layer masks; w: all = the layers named
	extra      bool // a: list a layer twice; w: also name layers no subnet selects
}

// runIndexOps applies ops to a fresh scheduler and the model, checking
// every query after every step, then retires what is left and checks that
// the queues drained.
func runIndexOps(t *testing.T, ops []indexOp, r *rng.Stream) {
	t.Helper()
	s, m := New(0), &indexModel{}
	for i, op := range ops {
		switch op.kind {
		case 'a':
			all := maskIDs(op.all)
			if op.extra && len(all) > 0 {
				all = append(all, all[0])
			}
			err := s.AddSubnet(SubnetInfo{Seq: len(m.fin), AllLayers: all, StageLayers: maskIDs(op.stage)})
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			m.all, m.stage = append(m.all, op.all), append(m.stage, op.stage)
			m.written, m.fin = append(m.written, 0), append(m.fin, false)
		case 'w':
			ids := maskIDs(op.all)
			if op.extra {
				ids = append(ids, 99, -1)
			}
			s.MarkWritten(op.seq, ids)
			m.markWritten(op.seq, op.all)
		case 'f':
			s.MarkFinished(op.seq)
			m.markFinished(op.seq)
		}
		// Queue and assumptions range over known, eliminated and unknown
		// seqs alike.
		var queue []int
		for seq := -1; seq <= len(m.fin)+1; seq++ {
			if r.Intn(3) > 0 {
				queue = append(queue, seq)
			}
		}
		queue = shuffled(r, queue)
		span := len(m.fin) + 3
		m.check(t, s, queue, []int{r.Intn(span) - 1, r.Intn(span) - 1})
		pendingWriters(t, s)
	}
	for seq := len(m.fin) - 1; seq >= 0; seq-- {
		s.MarkFinished(seq)
		m.markFinished(seq)
	}
	m.check(t, s, []int{0, len(m.fin)}, nil)
	if n := pendingWriters(t, s); n != 0 || s.Active() != 0 {
		t.Fatalf("after retiring everything: %d queue entries, %d active subnets", n, s.Active())
	}
}

// indexCases are the note patterns the fault plane and the mirrored-write
// protocol produce that a straight admit/retire drive never does.
var indexCases = map[string][]indexOp{
	"notes delivered twice": {
		{kind: 'a', all: 0x03, stage: 0x03}, {kind: 'a', all: 0x03, stage: 0x01}, {kind: 'a', all: 0x02, stage: 0x02},
		{kind: 'w', seq: 0, all: 0x01}, {kind: 'w', seq: 0, all: 0x01},
		{kind: 'f', seq: 0}, {kind: 'f', seq: 0}, {kind: 'w', seq: 0, all: 0x03},
	},
	"finished above the frontier, layers never written": {
		{kind: 'a', all: 0x01, stage: 0x01}, {kind: 'a', all: 0x06, stage: 0x06}, {kind: 'a', all: 0x07, stage: 0x07},
		{kind: 'f', seq: 1}, {kind: 'w', seq: 1, all: 0x02}, {kind: 'f', seq: 0},
	},
	"written layer the subnet does not select": {
		{kind: 'a', all: 0x01, stage: 0x01}, {kind: 'a', all: 0x03, stage: 0x03}, {kind: 'a', all: 0x02, stage: 0x02},
		{kind: 'w', seq: 0, all: 0x02, extra: true}, {kind: 'w', seq: 1, all: 0xf0, extra: true},
	},
	"unknown and eliminated seqs": {
		{kind: 'a', all: 0x01, stage: 0x01}, {kind: 'a', all: 0x01, stage: 0x01},
		{kind: 'w', seq: 2, all: 0x01}, {kind: 'f', seq: 2}, {kind: 'f', seq: -1}, {kind: 'f', seq: 7},
		{kind: 'a', all: 0x01, stage: 0x01}, // seq 2 registers as if those notes never came
		{kind: 'f', seq: 0}, {kind: 'w', seq: 0, all: 0x01}, {kind: 'f', seq: 0},
	},
	"writes arrive out of order": {
		{kind: 'a', all: 0x01, stage: 0x01}, {kind: 'a', all: 0x01, stage: 0x01},
		{kind: 'a', all: 0x01, stage: 0x01, extra: true}, {kind: 'a', all: 0x01, stage: 0x01},
		{kind: 'w', seq: 2, all: 0x01}, {kind: 'w', seq: 3, all: 0x01}, {kind: 'w', seq: 1, all: 0x01},
		{kind: 'a', all: 0x01, stage: 0x01}, // appends after the queue's tail was unlinked
		{kind: 'w', seq: 0, all: 0x01},
	},
	"stage layers outside the subnet's own": {
		{kind: 'a', all: 0x01, stage: 0x01}, {kind: 'a', all: 0x02, stage: 0x81}, {kind: 'a', all: 0x80, stage: 0x02},
		{kind: 'w', seq: 0, all: 0x01},
	},
}

func TestIndexMatchesReferenceOnNotePatterns(t *testing.T) {
	for name, ops := range indexCases {
		t.Run(name, func(t *testing.T) { runIndexOps(t, ops, rng.New(1)) })
	}
}

// TestIndexMatchesReferenceOnRandomInterleavings drives random
// interleavings of registration and notes — any seq, any layers, every
// tenth note repeated — and holds the scheduler to the reference at
// every step.
func TestIndexMatchesReferenceOnRandomInterleavings(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		r := rng.New(seed)
		var ops []indexOp
		registered := 0
		for len(ops) < 40+r.Intn(80) {
			seq := r.Intn(registered+3) - 1
			if r.Intn(2) == 0 && registered > 0 {
				seq = r.Intn(registered+1) / 2 // bias to the low end, so the frontier moves
			}
			switch p := r.Intn(10); {
			case p < 3:
				all := byte(r.Intn(256))
				stage := all & byte(r.Intn(256))
				if r.Intn(8) == 0 {
					stage = byte(r.Intn(256))
				}
				ops = append(ops, indexOp{kind: 'a', all: all, stage: stage, extra: r.Intn(4) == 0})
				registered++
			case p < 6:
				ops = append(ops, indexOp{kind: 'w', seq: seq, all: byte(r.Intn(256)), extra: r.Intn(4) == 0})
			case p < 9:
				ops = append(ops, indexOp{kind: 'f', seq: seq})
			case len(ops) > 0:
				ops = append(ops, ops[len(ops)-1])
				if ops[len(ops)-1].kind == 'a' {
					registered++
				}
			}
		}
		runIndexOps(t, ops, r)
	}
}

// TestThroughReleaseMatchesExactOnOrderedWrites is the argument that
// MarkWritten's release-through contract leaves the simulator's results
// unchanged. The simulator delivers every note to every stage at once,
// so the writes a scheduler has seen on a layer are always a prefix of
// the layer's selectors in sequence order. On such note sequences — any
// registration, notes and finishes, as long as no write to a layer
// arrives before every earlier selector's — the contract and the exact
// rule (a note releases only its own pairs) must agree on every pending
// pair at every step, and so must the one-ahead lookahead for any
// assumed subnet that has seen its layers' earlier writes. The
// scheduler is held to the contract's model throughout.
func TestThroughReleaseMatchesExactOnOrderedWrites(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		r := rng.New(seed)
		s, through, exact := New(0), &indexModel{}, &indexModel{exact: true}
		models := []*indexModel{through, exact}
		// inOrder reports whether every earlier selector of the layers in
		// mask has written them or finished: a write of seq to them keeps
		// each layer's seen writes a prefix.
		inOrder := func(seq int, mask byte) bool {
			for w := 0; w < seq && w < len(exact.fin); w++ {
				if !exact.fin[w] && exact.all[w]&^exact.written[w]&mask != 0 {
					return false
				}
			}
			return true
		}
		for step, steps := 0, 40+r.Intn(80); step < steps; step++ {
			n := len(exact.fin)
			seq := r.Intn(n+3) - 1
			switch p := r.Intn(10); {
			case p < 3 || n == 0:
				all := byte(r.Intn(256))
				stage := all & byte(r.Intn(256))
				if err := s.AddSubnet(SubnetInfo{Seq: n, AllLayers: maskIDs(all), StageLayers: maskIDs(stage)}); err != nil {
					t.Fatal(err)
				}
				for _, m := range models {
					m.all, m.stage = append(m.all, all), append(m.stage, stage)
					m.written, m.fin = append(m.written, 0), append(m.fin, false)
				}
			case p < 7:
				var mask byte
				for b := 0; b < 8; b++ {
					if bit := byte(1) << b; r.Intn(2) == 0 && (!exact.known(seq) || inOrder(seq, bit)) {
						mask |= bit
					}
				}
				s.MarkWritten(seq, maskIDs(mask))
				for _, m := range models {
					m.markWritten(seq, mask)
				}
			default:
				if exact.known(seq) && !inOrder(seq, exact.all[seq]) {
					continue
				}
				s.MarkFinished(seq)
				for _, m := range models {
					m.markFinished(seq)
				}
			}
			for q := range exact.fin {
				if through.fin[q] != exact.fin[q] || !exact.fin[q] && through.pending(q, 0xff) != exact.pending(q, 0xff) {
					t.Fatalf("seed %d step %d: subnet %d pending %08b finished %v under the contract, %08b %v exactly",
						seed, step, q, through.pending(q, 0xff), through.fin[q], exact.pending(q, 0xff), exact.fin[q])
				}
			}
			var queue, assume []int
			for q := -1; q <= len(exact.fin); q++ {
				if r.Intn(2) == 0 {
					queue = append(queue, q)
				}
				if exact.known(q) && r.Intn(3) == 0 && inOrder(q, exact.all[q]) {
					assume = append(assume, q)
				}
			}
			for k := 0; k <= len(assume); k++ {
				ti, tv := through.scheduleAssuming(queue, assume[:k])
				ei, ev := exact.scheduleAssuming(queue, assume[:k])
				if ti != ei || tv != ev {
					t.Fatalf("seed %d step %d: lookahead on %v assuming %v picks (%d,%d) under the contract, (%d,%d) exactly",
						seed, step, queue, assume[:k], ti, tv, ei, ev)
				}
			}
			through.check(t, s, queue, assume)
		}
	}
}
