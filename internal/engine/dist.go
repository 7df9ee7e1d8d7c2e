// The concurrent plane's one stage-to-stage data path, and its
// distributed half: stage processes.
//
// Every cross-stage message — activation handoff, gradient return,
// completion-note broadcast, remote prefetch push — is a transport.Msg
// sent through ccRun.tp and received by the destination stage's own
// goroutine from its inbox, Transport.Recv(k). No goroutine sits between
// the transport and the stage. Which transport is the only thing that
// varies: a private ChanTransport built here when Config.Dist is nil, or
// the caller's when a DistConfig names the subset of stages this process
// executes — a shared ChanTransport in tests, the worker's TCP star
// (internal/distrib) in a fleet. Scheduler, admission rule, trace
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
	"sort"

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
// gradient and D−1 notes, and each can retire and admit one successor,
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
	if m.To == transport.Broadcast {
		c.stages[m.From].sent += c.w.D - 1
	} else {
		c.stages[m.From].sent++
	}
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

// note fans the release of subnet seq's WRITE of ids on stage from out
// to every other stage (the receiving end is stage.note). On stage 0 the
// release advanced the frontier, which is committed first.
func (c *ccRun) note(from, seq int, ids []supernet.LayerID, finished bool) {
	if finished {
		c.snapshotCut(c.stages[from])
	}
	c.post(transport.Msg{
		Type: transport.FrameNote, From: from, To: transport.Broadcast,
		Seq: seq, IDs: ids, Finished: finished,
	})
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
// notes, and ~2n fetch pushes can ever arrive.
func DistQueueCap(d, n int) int { return 2*(d+4)*n + 16 }

// FilterTrace returns the sub-trace of tr on the given stages, in
// order — the canonical reference a dist worker checks its local
// observation against, and the shape the coordinator's merge consumes.
func FilterTrace(tr *trace.Trace, stages []int) *trace.Trace {
	keep := make(map[int]bool, len(stages))
	for _, k := range stages {
		keep[k] = true
	}
	out := &trace.Trace{}
	for _, ev := range tr.Events {
		if keep[ev.Stage] {
			out.Events = append(out.Events, ev)
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
	rank := func(ev trace.Event) int {
		seq := ev.Subnet - base
		if ev.Kind == trace.Read {
			return seq*2*depth + ev.Stage
		}
		return seq*2*depth + depth + (depth - 1 - ev.Stage)
	}
	// Per-subnet causal chains over the (kind, stage) groups that
	// actually occur — a subnet with an empty partition on some stage
	// simply has no group there. The chain orders each subnet's READs
	// downstream then its WRITEs upstream; an access is eligible when
	// its group is the subnet's current chain position, which encodes
	// both pipeline causality and reads-before-first-write.
	type group struct {
		kind  trace.AccessKind
		stage int
	}
	// Per-layer CSP chains over the (subnet, kind) groups that occur on
	// each layer, in the sequential order Definition 1 fixes: subnets
	// ascending, READs before WRITEs within a subnet. For one subnet a
	// layer lives on one stage, so each group comes from one worker and
	// group-internal order is that worker's local order.
	type lgroup struct {
		seq  int
		kind trace.AccessKind
	}
	counts := make(map[int]map[group]int)
	lcounts := make(map[supernet.LayerID]map[lgroup]int)
	for _, tr := range parts {
		for _, ev := range tr.Events {
			q := ev.Subnet - base
			if counts[q] == nil {
				counts[q] = make(map[group]int)
			}
			counts[q][group{ev.Kind, ev.Stage}]++
			if lcounts[ev.Layer] == nil {
				lcounts[ev.Layer] = make(map[lgroup]int)
			}
			lcounts[ev.Layer][lgroup{q, ev.Kind}]++
		}
	}
	chains := make(map[int][]group, len(counts))
	for q, gs := range counts {
		var chain []group
		for k := 0; k < depth; k++ {
			if gs[group{trace.Read, k}] > 0 {
				chain = append(chain, group{trace.Read, k})
			}
		}
		for k := depth - 1; k >= 0; k-- {
			if gs[group{trace.Write, k}] > 0 {
				chain = append(chain, group{trace.Write, k})
			}
		}
		chains[q] = chain
	}
	lchains := make(map[supernet.LayerID][]lgroup, len(lcounts))
	for l, gs := range lcounts {
		chain := make([]lgroup, 0, len(gs))
		for g := range gs {
			chain = append(chain, g)
		}
		sort.Slice(chain, func(i, j int) bool { // Read < Write
			a, b := chain[i], chain[j]
			return a.seq < b.seq || a.seq == b.seq && a.kind < b.kind
		})
		lchains[l] = chain
	}
	type qgroup struct {
		q int
		g group
	}
	type layerGroup struct {
		l supernet.LayerID
		g lgroup
	}
	pos := make(map[int]int, len(chains))
	lpos := make(map[supernet.LayerID]int, len(lchains))
	emitted := make(map[qgroup]int)
	lemitted := make(map[layerGroup]int)
	idx := make([]int, len(parts))
	out := &trace.Trace{}
	for {
		best, bestRank := -1, 0
		for i, tr := range parts {
			if idx[i] >= len(tr.Events) {
				continue
			}
			ev := tr.Events[idx[i]]
			q := ev.Subnet - base
			if chains[q][pos[q]] != (group{ev.Kind, ev.Stage}) {
				continue
			}
			if lchains[ev.Layer][lpos[ev.Layer]] != (lgroup{q, ev.Kind}) {
				continue
			}
			if r := rank(ev); best < 0 || r < bestRank {
				best, bestRank = i, r
			}
		}
		if best < 0 {
			return out
		}
		ev := parts[best].Events[idx[best]]
		idx[best]++
		ev.Order = len(out.Events)
		out.Events = append(out.Events, ev)
		q := ev.Subnet - base
		k := qgroup{q, group{ev.Kind, ev.Stage}}
		if emitted[k]++; emitted[k] == counts[q][k.g] {
			pos[q]++
		}
		lk := layerGroup{ev.Layer, lgroup{q, ev.Kind}}
		if lemitted[lk]++; lemitted[lk] == lcounts[ev.Layer][lk.g] {
			lpos[ev.Layer]++
		}
	}
}
