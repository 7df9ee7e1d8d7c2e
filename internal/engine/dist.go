// The concurrent plane's one stage-to-stage data path, and its
// distributed half: stage processes.
//
// Every cross-stage message — activation handoff, gradient return,
// write note, remote prefetch push — is a transport.Msg sent through
// ccRun.tp to one stage and received by that stage's own goroutine from
// its inbox, Transport.Recv(k). No goroutine sits between the transport
// and the stage. A write note goes only to the stages that run the next
// reader of a layer it releases (noteRoutes, built once per run): at most
// D−1 per write, about two per subnet on the fleet's stream.
// Which transport is the only thing that varies: a private ChanTransport
// built here when Config.Dist is nil, or the caller's when a DistConfig
// names the subset of stages this process executes — a shared
// ChanTransport in tests, the worker's mesh of TCP links to its peer
// stages (internal/distrib) in a fleet. Scheduler, admission rule, trace
// emission and the send/receive code are identical in all of them.
//
// Senders never block. A transport that cannot take a message — closed,
// peer past its reconnect budget, destination queue full — returns an
// error, and the first such error stops the run (ccRun.post) naming
// the sending and receiving stage: a full inbox is a loud failure, never
// a silent pipeline deadlock.
//
// Verification composes: a worker's observed trace covers only its
// local stages, so RunConcurrent checks the local observation against
// the canonical trace filtered to local stages. That projection is
// necessary but not sufficient — stage partitions are per-subnet, so a
// layer's accesses can straddle workers — which is why the coordinator
// (internal/distrib) k-way-merges the workers' traces back into a
// single causally-ordered global observation (MergeStageTraces) and
// re-verifies the whole run against the sequential reference.
package engine

import (
	"fmt"

	"naspipe/internal/clock"
	"naspipe/internal/csp"
	"naspipe/internal/fault"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
	"naspipe/internal/trace"
	"naspipe/internal/transport"
)

// DistConfig places this process in a distributed run.
type DistConfig struct {
	// Transport carries all cross-stage traffic. The engine closes
	// nothing: the caller owns the transport's lifecycle, and sizes its
	// delivery queues with DistQueueCap.
	Transport transport.Transport

	// Stages lists the pipeline stages this process executes (distinct,
	// each in [0, D)). Every other stage is assumed to run elsewhere,
	// reachable through Transport.
	Stages []int
}

func (d *DistConfig) validate(depth int) error {
	if d.Transport == nil {
		return fmt.Errorf("engine: DistConfig.Transport is nil")
	}
	if len(d.Stages) == 0 {
		return fmt.Errorf("engine: DistConfig.Stages is empty")
	}
	seen := make(map[int]bool, len(d.Stages))
	for _, k := range d.Stages {
		if k < 0 || k >= depth {
			return fmt.Errorf("engine: DistConfig stage %d outside the %d-stage pipeline", k, depth)
		}
		if seen[k] {
			return fmt.Errorf("engine: DistConfig stage %d listed twice", k)
		}
		seen[k] = true
	}
	return nil
}

// inboxCap sizes the per-stage queues of the ChanTransport the engine
// builds for a single-process run of n subnets, from the in-flight
// window rather than from n. Invariant: a stage drains its inbox before
// every task, and between two drains at most (D+2)·W messages can land
// on it, W = min(InflightLimit, n). refill keeps at most W subnets in
// flight; each of those can still owe the stage one activation, one
// gradient and at most D−1 notes (one per other stage's write, and only
// when the stage runs a next reader), and each can retire and admit one
// successor,
// which can reach the stage with an activation but no further — its
// gradient and notes need the stage itself to run. The fault plane may
// deliver a message twice, hence the doubling; +8 is slack for tiny
// windows. An overflow would be an engine bug and fails the run (see
// ccRun.post), it cannot hang it.
func (c *ccRun) inboxCap(n int) int {
	w := min(c.cfg.InflightLimit, n)
	capacity := (c.w.D+2)*w + 8
	if c.inj != nil {
		capacity *= 2
	}
	return capacity
}

// post pushes one message onto the data path and counts its deliveries
// for the lost-wake-up check. A transport refusing traffic (destination
// inbox full, closed during teardown, a dead peer past its reconnect
// budget) stops the run like a checkpoint-recorder failure.
func (c *ccRun) post(m transport.Msg) {
	if err := c.tp.Send(m); err != nil {
		c.stop(fmt.Errorf("engine: transport send (stage %d -> %d): %w", m.From, m.To, err))
		return
	}
	c.stages[m.From].sent++
}

// send hands an activation to stage from+1, or a gradient with its
// carried pending-backward records to stage from−1, through the fault
// plane: the message is posted once, twice (Duplicate), or after a wait
// (Delay). A Drop burns one bounded retry with exponential backoff; when
// retries are exhausted the message escalates to the reliable path and
// delivers — faults slow the pipeline, they never wedge it.
func (c *ccRun) send(from int, kind csp.Kind, seq int, carried []csp.PendingBackward) {
	s := c.stages[from]
	m := transport.Msg{Type: transport.FrameFwd, From: from, To: from + 1, Seq: seq}
	if kind == csp.Backward {
		m = transport.Msg{Type: transport.FrameBwd, From: from, To: from - 1, Seq: seq, Carried: carried}
		s.cont.Carried += int64(len(carried))
	}
	if c.inj == nil {
		c.post(m)
		return
	}
	tk, gseq := telKind(kind), c.base+seq
	for attempt := 0; ; attempt++ {
		v := c.inj.Message(tk, from, gseq, attempt)
		if v.Action == fault.Drop && attempt >= c.inj.MaxRetries() {
			v.Action = fault.Deliver
		}
		switch v.Action {
		case fault.Drop:
			s.telFault(telemetry.OpFaultDrop, gseq, tk, int64(attempt))
			clock.Sleep(c.inj.Backoff(attempt))
			continue
		case fault.Delay:
			s.telFault(telemetry.OpFaultDelay, gseq, tk, int64(v.Wait))
			clock.Sleep(v.Wait)
			c.post(m)
		case fault.Duplicate:
			s.telFault(telemetry.OpFaultDup, gseq, tk, 0)
			c.post(m)
			c.post(m)
		default:
			c.post(m)
		}
		return
	}
}

// note sends the release of subnet seq's WRITE of ids on stage from to
// the stages its routing row names, one message each (the receiving end
// is stage.note). Every message carries all of ids: a receiver releases
// through seq on each layer it still queues, which MarkWritten's rule
// makes safe whichever of them it is waiting on. On stage 0 the release
// advanced the frontier, which is committed first; the stage retires the
// subnet on its own scheduler and no other stage needs to hear it.
func (c *ccRun) note(from, seq int, ids []supernet.LayerID, finished bool) {
	if finished {
		c.snapshotCut(c.stages[from])
	}
	for _, to := range c.routes.row(seq, from) {
		c.post(transport.Msg{Type: transport.FrameNote, From: from, To: int(to), Seq: seq, IDs: ids})
	}
}

// noteRoutes is where write notes go: row i·D+k lists the stages, other
// than k, that run the next reader of a layer subnet i writes on stage k
// — the pred(s, L) rule (the last earlier selector of L) turned around.
// Under CSP a layer's next selector reads it only after this write, and
// every later writer waits for that read, so the note of each layer's
// immediate predecessor is the only one any stage needs; a stage that
// runs the next reader itself releases with its self-note. Each row
// holds at most D−1 stages.
type noteRoutes struct {
	d   int
	off []int32 // row r is dst[off[r]:off[r+1]]
	dst []int32
}

// newNoteRoutes builds the table in one backward walk over the stream,
// keeping per layer the stage of its next selector: O(accesses) time
// and four allocations, whatever the pipeline depth. Rows are filled
// from the end of dst, so the table's unused slack is its front.
func newNoteRoutes(w *World) noteRoutes {
	n, d := len(w.Subnets), w.D
	total := 0
	for i := range w.Subnets {
		total += len(w.allIDs[i])
	}
	next := make([]int32, w.Space.NumLayers()) // stage of the layer's next selector, −1 for none
	for l := range next {
		next[l] = -1
	}
	listed := make([]int32, d) // the row (+1) that last listed each stage
	r := noteRoutes{d: d, off: make([]int32, n*d+1), dst: make([]int32, total)}
	pos := int32(total)
	r.off[n*d] = pos
	for i := n - 1; i >= 0; i-- {
		for k := d - 1; k >= 0; k-- {
			row := int32(i*d + k)
			for _, id := range w.stageIDs[i][k] {
				if to := next[id]; to >= 0 && to != int32(k) && listed[to] != row+1 {
					listed[to] = row + 1
					pos--
					r.dst[pos] = to
				}
			}
			r.off[row] = pos
		}
		for k, ids := range w.stageIDs[i] {
			for _, id := range ids {
				next[id] = int32(k)
			}
		}
	}
	return r
}

// row returns the stages subnet seq's write on stage k is noted to.
func (r noteRoutes) row(seq, k int) []int32 {
	i := seq*r.d + k
	return r.dst[r.off[i]:r.off[i+1]]
}

// fetch forwards a prefetch of subnet seq's stage-k context: a direct
// request when stage k runs in this process, a Fetch message otherwise.
// The stage machine asks only with the memory plane on, so frame counts
// stay free of traffic a cacheless receiver would discard.
func (c *ccRun) fetch(from, k, seq int) {
	if t := c.stages[k]; t != nil {
		c.requestFetch(t, seq)
		return
	}
	c.post(transport.Msg{Type: transport.FrameFetch, From: from, To: k, Seq: seq})
}

// DistQueueCap sizes a caller-supplied transport's per-stage delivery
// queue for the worst case, so it holds whatever stages in other
// processes send however late this one drains: per stage, at most n
// forwards + n backwards (×2 under fault-plane duplication), (D-1)·n
// notes (one per other stage's write of a subnet, if targeted at this
// stage), and ~2n fetch pushes can ever arrive.
func DistQueueCap(d, n int) int { return 2*(d+4)*n + 16 }

// FilterTrace returns the sub-trace of tr on the given stages, in
// order — the canonical reference a dist worker checks its local
// observation against, and the shape the coordinator's merge consumes.
func FilterTrace(tr *trace.Trace, stages []int) *trace.Trace {
	var keep []bool // indexed by stage
	for _, k := range stages {
		if k < 0 {
			continue // no event runs there
		}
		if k >= len(keep) {
			keep = append(keep, make([]bool, k+1-len(keep))...)
		}
		keep[k] = true
	}
	kept := func(stage int) bool { return uint(stage) < uint(len(keep)) && keep[stage] }
	n := 0
	for i := range tr.Events {
		if kept(tr.Events[i].Stage) {
			n++
		}
	}
	out := &trace.Trace{}
	if n > 0 {
		out.Events = make([]trace.Event, 0, n)
		for _, ev := range tr.Events {
			if kept(ev.Stage) {
				out.Events = append(out.Events, ev)
			}
		}
	}
	return out
}

// MergeStageTraces reconstructs a valid global emission order from the
// workers' local observed traces: a topological k-way merge over the
// run's causal DAG. The DAG's edges are each worker's local emission
// order, the per-subnet pipeline chain (READs walk the stages
// downstream, then WRITEs walk back upstream), and the per-layer CSP
// order (Definition 1: a layer's accesses happen in subnet order,
// reads before writes within a subnet). The real execution's
// wall-clock order is a linear extension of exactly that DAG — the
// chain is the pipeline's dataflow and the per-layer order is what
// each stage's csp.Scheduler enforces at admission via cross-stage
// MarkWritten notes — so the merge always completes and always
// satisfies the replay trainer's global-order constraint. Rank in the
// canonical causal order breaks ties deterministically (ranks are
// unique per access, so the result is independent of the order parts
// are passed in).
//
// Rank alone would not be safe: under out-of-order forwarding a stage
// legally runs F(p) before F(q) with p > q while stage D-1 retires
// B(q); picking strictly by rank would then emit subnet q's first WRITE
// while its stage-k READ is still queued behind F(p) — an order the
// replay trainer correctly rejects. Nor is the subnet chain alone
// enough: stage partitions are per-subnet, so the same layer can live
// on stage 0 for subnet p and stage 1 for subnet q — two different
// workers whose local orders say nothing about each other. Only the
// per-layer gate restores that cross-worker edge.
func MergeStageTraces(depth, base int, parts []*trace.Trace) *trace.Trace {
	out := &trace.Trace{}
	// Dense index spaces: subnets by seq − base and layers by LayerID,
	// each shifted by its smallest value so any input indexes in range.
	total, qlo, qhi, llo, lhi := 0, 0, 0, 0, 0
	for _, tr := range parts {
		for _, ev := range tr.Events {
			q, l := ev.Subnet-base, int(ev.Layer)
			if total == 0 {
				qlo, qhi, llo, lhi = q, q, l, l
			}
			qlo, qhi, llo, lhi = min(qlo, q), max(qhi, q), min(llo, l), max(lhi, l)
			total++
		}
	}
	if total == 0 {
		return out
	}
	nq, nl := qhi-qlo+1, lhi-llo+1
	// Per-subnet causal chains. A subnet's chain walks its READ groups
	// downstream, then its WRITE groups upstream: chain index ci is the
	// stage for a READ and 2D−1−stage for a WRITE, which is also the
	// access's canonical rank within the subnet. left[q·2D+ci] counts the
	// group's accesses not yet emitted; pos[q] is the subnet's current
	// chain position, the first group with any left (a subnet with an
	// empty partition on some stage simply has no group there). An access
	// is eligible when its group is at pos, which encodes both pipeline
	// causality and reads-before-first-write.
	width := 2 * depth
	chainIndex := func(ev *trace.Event) int {
		switch {
		case ev.Stage < 0 || ev.Stage >= depth:
			return -1
		case ev.Kind == trace.Read:
			return ev.Stage
		case ev.Kind == trace.Write:
			return width - 1 - ev.Stage
		}
		return -1
	}
	left := make([]int, nq*width)
	// Per-layer CSP chains over the (subnet, kind) groups that occur on
	// each layer, in the sequential order Definition 1 fixes: subnets
	// ascending, READs before WRITEs within a subnet — the group key
	// q·2+kind. For one subnet a layer lives on one stage, so each group
	// comes from one worker and group-internal order is that worker's
	// local order. The chains are built by one counting sort on the key.
	keyCount := make([]int, nq*2+1)
	for _, tr := range parts {
		for i := range tr.Events {
			ev := &tr.Events[i]
			if ci := chainIndex(ev); ci >= 0 {
				q := ev.Subnet - base - qlo
				left[q*width+ci]++
				keyCount[q*2+int(ev.Kind)+1]++
			}
		}
	}
	for k := 1; k < len(keyCount); k++ {
		keyCount[k] += keyCount[k-1]
	}
	byKey := make([]int, keyCount[len(keyCount)-1]) // layers, grouped by key ascending
	for _, tr := range parts {
		for i := range tr.Events {
			ev := &tr.Events[i]
			if chainIndex(ev) >= 0 {
				k := (ev.Subnet-base-qlo)*2 + int(ev.Kind)
				byKey[keyCount[k]] = int(ev.Layer) - llo
				keyCount[k]++
			}
		}
	}
	type lgroup struct{ key, left int }
	lchains := make([][]lgroup, nl)
	for k, i := 0, 0; i < len(byKey); i++ {
		for i >= keyCount[k] {
			k++
		}
		l := byKey[i]
		if c := lchains[l]; len(c) > 0 && c[len(c)-1].key == k {
			c[len(c)-1].left++
		} else {
			lchains[l] = append(c, lgroup{key: k, left: 1})
		}
	}
	pos := make([]int, nq)
	for q := range pos {
		for pos[q] < width && left[q*width+pos[q]] == 0 {
			pos[q]++
		}
	}
	lpos := make([]int, nl)
	idx := make([]int, len(parts))
	out.Events = make([]trace.Event, 0, total)
	for {
		best, bestRank := -1, 0
		for i, tr := range parts {
			if idx[i] >= len(tr.Events) {
				continue
			}
			ev := &tr.Events[idx[i]]
			ci := chainIndex(ev)
			q := ev.Subnet - base - qlo
			if ci < 0 || pos[q] != ci {
				continue
			}
			l := int(ev.Layer) - llo
			if lchains[l][lpos[l]].key != q*2+int(ev.Kind) {
				continue
			}
			if r := q*width + ci; best < 0 || r < bestRank {
				best, bestRank = i, r
			}
		}
		if best < 0 {
			break
		}
		ev := parts[best].Events[idx[best]]
		idx[best]++
		ev.Order = len(out.Events)
		out.Events = append(out.Events, ev)
		q, l := bestRank/width, int(ev.Layer)-llo
		if left[bestRank]--; left[bestRank] == 0 {
			for pos[q] < width && left[q*width+pos[q]] == 0 {
				pos[q]++
			}
		}
		if g := &lchains[l][lpos[l]]; g.left > 1 {
			g.left--
		} else {
			lpos[l]++
		}
	}
	if len(out.Events) == 0 {
		out.Events = nil
	}
	return out
}
