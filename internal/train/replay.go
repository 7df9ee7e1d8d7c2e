package train

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"naspipe/internal/data"
	"naspipe/internal/layers"
	"naspipe/internal/supernet"
	"naspipe/internal/trace"
)

// inlineWork is the per-task work, dim² × batch, below which a replay
// runs its task graph on the calling goroutine alone. On a 2-core Intel
// Xeon (go1.24, linux/amd64, SSE2 batch kernels), an inline replay at
// dim 64 and batch 4 spends ≈ 15 µs per block, ≈ 0.3 ns per unit per
// task, so 4096 units are ≈ 1.2 µs, about one wake-up. Against running
// inline, a second worker (96 NLP.c3 subnets, D = 4, five runs of each)
// cost +26–30 % wall and +85 % CPU at dim 8 (128 and 256 units), bought
// nothing at dim 16 (−1 % wall, +60 % CPU), and bought −18 % wall for
// +36 % CPU at dim 32 (4096) and −26 % for +23 % at dim 64
// (pipe-numeric's 16384).
const inlineWork = 4096

// Task kinds of a replayed block. A task's id is 3·slot + kind, where a
// block's slot is its subnet's first slot plus the block index, so
// running the lowest ready id first runs the lowest subnet first.
const (
	fwd = iota // the block's forward over the batch
	bwd        // its backward: the pre-activation and input gradients
	sgd        // its gradient, summed in item order, and SGD write to the live layer
)

// Replay executes the parameter access order of an engine trace on a
// fresh numeric supernet. The trace must contain exactly one READ and one
// WRITE per (subnet, block); engine runs with RecordTrace produce this.
func Replay(cfg Config, subnets []supernet.Subnet, tr *trace.Trace) (Result, error) {
	cfg = cfg.withDefaults()
	net := supernet.BuildNumeric(cfg.Space, cfg.Dim, cfg.Seed)
	return ReplayOn(cfg, net, subnets, tr)
}

// ReplayOn executes a trace's access order against an existing live
// supernet. Subnets keep their original (global) Seq — trace events and
// data batches are keyed by it — so replaying a resumed run's suffix
// trace onto a sequential-prefix net reproduces the uninterrupted run.
// Losses are indexed by position in subnets. A malformed trace is
// reported before any weight changes.
//
// The replay is a task graph of per-block forward, backward and SGD
// tasks on up to GOMAXPROCS goroutines, ordered only by each subnet's
// chain and the trace's per-layer accesses (see DESIGN.md, "Causal-
// parallel replay"); a reader the graph cannot wait for trains on a
// pre-write copy. A CSP trace copies nothing.
func ReplayOn(cfg Config, net *supernet.Numeric, subnets []supernet.Subnet, tr *trace.Trace) (Result, error) {
	cfg = cfg.withDefaults()
	r := &replay{cfg: cfg, net: net, subs: subnets, events: tr.Events,
		src: data.NewSource(cfg.Dataset, cfg.Dim, cfg.BatchSize, cfg.Seed)}
	if err := r.build(); err != nil {
		return Result{}, err
	}
	if cfg.Dim*cfg.Dim*cfg.BatchSize >= inlineWork {
		r.helpers = runtime.GOMAXPROCS(0) - 1
	}
	r.cond.L = &r.mu
	r.work()
	r.wg.Wait()
	return Result{Net: net, Losses: r.losses, Checksum: net.Checksum()}, nil
}

// replay is one ReplayOn call: the trace's accesses bucketed by layer,
// one pending count per forward and write task (a backward has exactly
// one predecessor), and the workers' shared state, guarded by mu.
type replay struct {
	cfg    Config
	net    *supernet.Numeric
	subs   []supernet.Subnet
	events []trace.Event
	src    *data.Source

	// Per layer L, its accesses in trace order are
	// byLayer[layerAt[L]:layerAt[L+1]], each slot<<2 | snap<<1 | write.
	// snap marks a READ whose subnet had not done all its READs at the
	// next WRITE of L: it trains on that WRITE's pre-write copy. On a
	// WRITE, snap marks one that makes such a copy.
	byLayer, layerAt []int32

	// Per slot.
	subOf        []int32 // the slot's subnet (position in subs)
	wAt          []int32 // index in byLayer of the slot's WRITE
	waits        []int32 // the slot of another subnet's WRITE waiting for this backward, or -1
	pendF, pendW []int32 // forward: previous block, the write it reads; write: own backward, previous write, waited-for readers
	views        []*layers.Layer

	// Per subnet.
	first  []int32 // first slot; first[len(subs)] is the slot count
	left   []int32 // writes not yet applied
	arenas []*arena
	losses []float32

	mu      sync.Mutex
	cond    sync.Cond
	ready   []int32 // ready task ids, high to low
	free    []*arena
	done    int
	total   int
	running int
	idle    int // parked workers not yet signalled
	helpers int // goroutines still allowed to start
	wg      sync.WaitGroup
}

// build validates the trace in one walk — the same errors, in the same
// trace order, as a sequential replay would hit — and sets up the graph.
func (r *replay) build() error {
	n, nl := len(r.subs), r.cfg.Space.NumLayers()
	r.first = make([]int32, n+1)
	posOf := make(map[int]int32, n)
	for i, sub := range r.subs {
		posOf[sub.Seq] = int32(i)
		r.first[i+1] = r.first[i] + int32(len(sub.Choices))
	}
	slots, ne := int(r.first[n]), len(r.events)
	ints := make([]int32, 2*ne+nl+1+3*slots+2*n)
	take := func(k int) []int32 {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	// ev holds each event's slot<<1 | write until the counting sort has
	// read it; a valid trace has two events per slot, so the pending
	// counts then reuse its space.
	ev := take(ne)
	r.byLayer, r.layerAt = take(ne), take(nl+1)
	r.subOf, r.wAt, r.waits = take(slots), take(slots), take(slots)
	allRead := take(n)
	r.left = take(n)
	r.views = make([]*layers.Layer, slots)
	r.arenas = make([]*arena, n)
	r.losses = make([]float32, n)
	for i := range r.subs {
		r.left[i] = r.first[i+1] - r.first[i]
		for s := r.first[i]; s < r.first[i+1]; s++ {
			r.subOf[s], r.wAt[s], r.waits[s] = int32(i), -1, -1
		}
	}

	for j, e := range r.events {
		pos, ok := posOf[e.Subnet]
		if !ok {
			return fmt.Errorf("train: trace references unknown subnet %d", e.Subnet)
		}
		sub := r.subs[pos]
		block, choice := r.cfg.Space.BlockChoice(e.Layer)
		if block >= len(sub.Choices) || sub.Choices[block] != choice {
			return fmt.Errorf("train: trace event %v does not match subnet %d's choice", e, e.Subnet)
		}
		s := r.first[pos] + int32(block)
		switch e.Kind {
		case trace.Read: // a block is unread, read (a view) or written (a wAt)
			if r.views[s] != nil {
				return fmt.Errorf("train: duplicate READ of block %d by subnet %d", block, e.Subnet)
			}
			r.views[s] = r.net.At(block, choice)
			if r.left[pos]--; r.left[pos] == 0 {
				allRead[pos] = int32(j)
			}
			ev[j] = s << 1
		case trace.Write:
			switch {
			case r.views[s] == nil:
				return fmt.Errorf("train: subnet %d writes block %d it never read", e.Subnet, block)
			case r.wAt[s] >= 0:
				return fmt.Errorf("train: duplicate WRITE of block %d by subnet %d", block, e.Subnet)
			}
			if r.left[pos] > 0 {
				return fmt.Errorf("train: subnet %d writes before completing reads (%d/%d)",
					e.Subnet, len(sub.Choices)-int(r.left[pos]), len(sub.Choices))
			}
			r.left[pos]-- // below zero, left counts writes
			r.wAt[s] = int32(j)
			ev[j] = s<<1 | 1
		default:
			ev[j] = -1
			continue
		}
		r.layerAt[e.Layer+1]++
	}
	for i, sub := range r.subs {
		m := r.first[i+1] - r.first[i]
		if unwritten := m + min(r.left[i], 0); unwritten != 0 {
			return fmt.Errorf("train: subnet %d has %d unwritten blocks at trace end", sub.Seq, unwritten)
		}
		r.left[i] = m
	}

	// Counting sort by layer: layerAt[L+1] holds L's count, then runs as
	// L's cursor from L's start to its end, the start of L+1.
	for l, sum := 1, int32(0); l <= nl; l++ {
		r.layerAt[l], sum = sum, sum+r.layerAt[l]
	}
	for j, x := range ev {
		if x < 0 {
			continue
		}
		at := &r.layerAt[r.events[j].Layer+1]
		r.byLayer[*at] = x>>1<<2 | x&1
		*at++
	}
	clear(ev)
	r.pendF, r.pendW = ev[:slots], ev[slots:2*slots]

	// Pending counts and snapshot marks, one layer at a time. Each WRITE
	// closes the segment of READs since the previous one; wAt turns from
	// the WRITE's trace index into its index in byLayer.
	for l := 0; l < nl; l++ {
		lastW, seg := int32(-1), r.layerAt[l]
		for k := r.layerAt[l]; k < r.layerAt[l+1]; k++ {
			if r.byLayer[k]&1 == 0 {
				continue
			}
			w := r.byLayer[k] >> 2
			r.pendW[w] = 1 // own backward
			if lastW >= 0 {
				r.pendW[w]++
			}
			for q := seg; q < k; q++ {
				rs := r.byLayer[q] >> 2
				switch {
				case allRead[r.subOf[rs]] > r.wAt[w]:
					r.byLayer[q] |= 2
					r.byLayer[k] |= 2
				case r.subOf[rs] != r.subOf[w]:
					r.pendW[w]++
					r.waits[rs] = w
				}
				if r.byLayer[q]&2 != 0 || lastW >= 0 {
					r.pendF[rs]++
				}
			}
			r.wAt[w] = k
			lastW, seg = k, k+1
		}
		if lastW >= 0 {
			for _, x := range r.byLayer[seg:r.layerAt[l+1]] {
				r.pendF[x>>2]++
			}
		}
	}
	for s := int32(slots) - 1; s >= 0; s-- { // high to low: each push appends
		if s > r.first[r.subOf[s]] {
			r.pendF[s]++
		}
		if r.pendF[s] == 0 {
			r.push(3*s + fwd)
		}
	}
	r.total = 3 * slots
	return nil
}

// readsBefore returns the READs since the previous WRITE of the layer
// that slot s writes at index k of byLayer.
func (r *replay) readsBefore(s, k int32) []int32 {
	q, start := k, r.layerAt[r.layerOf(s)]
	for q > start && r.byLayer[q-1]&1 == 0 {
		q--
	}
	return r.byLayer[q:k]
}

// layerOf returns the layer slot s accesses.
func (r *replay) layerOf(s int32) supernet.LayerID {
	i := r.subOf[s]
	b := int(s - r.first[i])
	return r.cfg.Space.ID(b, r.subs[i].Choices[b])
}

// work runs ready tasks until the graph is done, lowest id first. A
// worker goes straight on to the next ready task — its chain successor
// when that is the lowest — and wakes a parked worker (or starts one,
// up to GOMAXPROCS) only when it leaves ready work behind. Each worker
// sums the gradients of the writes it runs in one scratch set of its
// own, which stays in its cache.
func (r *replay) work() {
	g := r.net.Layer[0].NewGrads()
	r.mu.Lock()
	for t := int32(-1); r.done < r.total; {
		if t < 0 {
			if len(r.ready) == 0 {
				if r.running == 0 {
					panic("train: replay task graph stalled") // every edge points forward
				}
				r.idle++
				r.cond.Wait()
				continue
			}
			t = r.ready[len(r.ready)-1]
			r.ready = r.ready[:len(r.ready)-1]
		}
		if s := t / 3; t%3 == fwd && s == r.first[r.subOf[s]] {
			// A subnet's first task takes an arena; its last write frees it.
			i := r.subOf[s]
			if n := len(r.free); n > 0 {
				r.arenas[i], r.free = r.free[n-1], r.free[:n-1]
			} else {
				r.arenas[i] = newArena(r.cfg.Dim)
			}
		}
		if len(r.ready) > 0 {
			r.wake()
		}
		r.running++
		r.mu.Unlock()
		r.run(t, g)
		r.mu.Lock()
		r.running--
		r.done++
		t = r.complete(t)
	}
	r.mu.Unlock()
}

func (r *replay) wake() {
	switch {
	case r.idle > 0:
		r.idle--
		r.cond.Signal()
	case r.helpers > 0:
		r.helpers--
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.work()
		}()
	}
}

// run executes task t, a write summing its gradient in g; it touches
// only what its edges give it.
func (r *replay) run(t int32, g *layers.Grads) {
	s := t / 3
	i := r.subOf[s]
	a, block := r.arenas[i], int(s-r.first[i])
	switch t % 3 {
	case fwd:
		if block == 0 {
			a.begin(r.src.Batch(r.subs[i].Seq), len(r.subs[i].Choices))
		}
		a.forward(block, r.views[s])
		if block == a.m-1 {
			r.losses[i] = a.seed()
		}
	case bwd:
		a.backward(block, r.views[s])
		r.views[s] = nil // lets a snapshot go before the replay ends
	case sgd:
		live := r.net.At(block, r.subs[i].Choices[block])
		if k := r.wAt[s]; r.byLayer[k]&2 != 0 {
			snap := live.Clone()
			for _, x := range r.readsBefore(s, k) {
				if x&2 != 0 {
					r.views[x>>2] = snap
				}
			}
		}
		a.gradient(block, g)
		live.ApplySGD(g, r.cfg.LR)
	}
}

// complete releases task t's successors and what it held. It returns
// the chain successor for the caller to run next if that is ready and
// the lowest ready task, and -1 otherwise.
func (r *replay) complete(t int32) int32 {
	s := t / 3
	i := r.subOf[s]
	next := int32(-1)
	switch t % 3 {
	case fwd:
		if s+1 == r.first[i+1] {
			next = 3*s + bwd
		} else if r.pendF[s+1]--; r.pendF[s+1] == 0 {
			next = 3*(s+1) + fwd
		}
	case bwd:
		r.release(r.pendW, s, sgd)
		if w := r.waits[s]; w >= 0 {
			r.release(r.pendW, w, sgd)
		}
		if s > r.first[i] {
			next = 3*(s-1) + bwd
		}
	case sgd:
		k := r.wAt[s]
		if r.byLayer[k]&2 != 0 {
			for _, x := range r.readsBefore(s, k) {
				if x&2 != 0 {
					r.release(r.pendF, x>>2, fwd)
				}
			}
		}
		q, end := k+1, r.layerAt[r.layerOf(s)+1]
		for ; q < end && r.byLayer[q]&1 == 0; q++ {
			if x := r.byLayer[q]; x&2 == 0 {
				r.release(r.pendF, x>>2, fwd)
			}
		}
		if q < end {
			r.release(r.pendW, r.byLayer[q]>>2, sgd)
		}
		if r.left[i]--; r.left[i] == 0 {
			r.free = append(r.free, r.arenas[i])
			r.arenas[i] = nil
		}
	}
	if r.done == r.total {
		r.cond.Broadcast()
	}
	if next >= 0 && len(r.ready) > 0 && r.ready[len(r.ready)-1] < next {
		r.push(next)
		return -1
	}
	return next
}

// release counts down one predecessor of slot s's task of the kind and
// readies the task at zero.
func (r *replay) release(pend []int32, s int32, kind int32) {
	if pend[s]--; pend[s] == 0 {
		r.push(3*s + kind)
	}
}

// push readies task t. ready is sorted high to low: work pops the
// lowest off the end.
func (r *replay) push(t int32) {
	i, _ := slices.BinarySearchFunc(r.ready, t, func(e, t int32) int { return cmp.Compare(t, e) })
	r.ready = slices.Insert(r.ready, i, t)
}
