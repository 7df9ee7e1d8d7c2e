// Package train is the numeric plane of NASPipe-Go: it turns scheduled
// parameter-access orders into actual float32 weights, making the paper's
// reproducibility claims mechanically checkable.
//
// Two trainers exist. Sequential trains the subnet stream strictly in
// order — the semantics every exploration algorithm assumes (§2.1) and
// the definition of the "correct" result. Replay executes an engine
// trace: each READ event fixes the parameters the subnet's step will use
// (the layer's values at that moment, copied only if a WRITE would change
// them before the step runs), and at each WRITE event it applies that
// subnet's gradient for the layer to the live parameters. A CSP
// trace replays to bitwise the same weights as Sequential on any GPU
// count (Definition 1); BSP and ASP traces read stale parameters and
// diverge as the cluster size changes the interleaving (Table 3).
package train

import (
	"fmt"

	"naspipe/internal/data"
	"naspipe/internal/layers"
	"naspipe/internal/supernet"
	"naspipe/internal/trace"
)

// Config describes a numeric training run.
type Config struct {
	Space     supernet.Space
	Dim       int     // model dimension of the numeric layers
	Seed      uint64  // weight init + data seed
	BatchSize int     // items per subnet step
	LR        float32 // SGD learning rate
	Dataset   data.Kind
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 12
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 4
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	return c
}

// Result of a numeric training run.
type Result struct {
	Net      *supernet.Numeric
	Losses   []float32 // per-subnet average training loss, in sequence order
	Checksum uint64    // bitwise digest of every final parameter
}

// FinalLoss returns the mean loss over the last quarter of the run — the
// "supernet loss" of Table 3.
func (r Result) FinalLoss() float64 {
	n := len(r.Losses)
	if n == 0 {
		return 0
	}
	start := n - n/4
	if start >= n {
		start = n - 1
	}
	var sum float64
	for _, l := range r.Losses[start:] {
		sum += float64(l)
	}
	return sum / float64(n-start)
}

// step runs one subnet's forward/backward on the given parameter views
// and returns the average loss plus per-block gradients. views[b] is the
// parameter state the forward READ of block b observed. All scratch
// (activation chain, gradient buffers, gradient sets) comes from a; the
// returned grads belong to a and must go back via a.release once applied.
// Beyond the batch itself (owned by the caller) this path is
// allocation-free in steady state.
func step(cfg Config, batch data.Batch, sub supernet.Subnet, views []*layers.Layer, a *arena) (float32, []*layers.Grads) {
	m := len(sub.Choices)
	a.ensure(m)
	grads := a.grads(views)
	var lossSum float32
	for i := range batch.Inputs {
		// Forward, saving inputs and activations per block.
		xs := a.xs
		xs[0] = batch.Inputs[i]
		for b := 0; b < m; b++ {
			views[b].ForwardInto(xs[b+1], xs[b])
		}
		// Loss: 0.5·‖y − target‖².
		out := xs[m]
		dy := a.cur
		tgt := batch.Targets[i]
		for j := range out {
			d := out[j] - tgt[j]
			dy[j] = d
			lossSum += 0.5 * d * d
		}
		// Backward. dy is consumed before dx is written, so one buffer
		// carries the output gradient down the whole chain.
		for b := m - 1; b >= 0; b-- {
			views[b].BackwardInto(dy, a.tmp, xs[b], xs[b+1], dy, grads[b])
		}
	}
	return lossSum / float32(len(batch.Inputs)), grads
}

// Sequential trains the subnets strictly in exploration order on a fresh
// numeric supernet.
func Sequential(cfg Config, subnets []supernet.Subnet) Result {
	cfg = cfg.withDefaults()
	net := supernet.BuildNumeric(cfg.Space, cfg.Dim, cfg.Seed)
	return SequentialOn(cfg, net, subnets)
}

// SequentialOn trains the subnets strictly in order on an existing live
// supernet — the resume path's building block: a sequential prefix run
// on a fresh net, then the suffix continues on the same net. Each
// subnet's data batch is keyed by its own (global) Seq, so a suffix
// trained here consumes exactly the batches the uninterrupted run would
// have. Losses are indexed by position in subnets.
func SequentialOn(cfg Config, net *supernet.Numeric, subnets []supernet.Subnet) Result {
	cfg = cfg.withDefaults()
	src := data.NewSource(cfg.Dataset, cfg.Dim, cfg.BatchSize, cfg.Seed)
	ar := newArena(cfg.Dim)
	losses := make([]float32, len(subnets))
	for i, sub := range subnets {
		views := ar.viewsBuf(len(sub.Choices))
		for b, c := range sub.Choices {
			views[b] = net.At(b, c)
		}
		loss, grads := step(cfg, src.Batch(sub.Seq), sub, views, ar)
		losses[i] = loss
		for b, c := range sub.Choices {
			net.At(b, c).ApplySGD(grads[b], cfg.LR)
		}
		ar.release(grads)
	}
	return Result{Net: net, Losses: losses, Checksum: net.Checksum()}
}

// Block states of a replayed subnet, in the only order a trace may move
// them.
const (
	unread uint8 = iota
	read
	written
)

// pendingSubnet tracks one subnet's in-flight replay state.
type pendingSubnet struct {
	sub        supernet.Subnet
	views      []*layers.Layer // per block: what its READ observed (see ReplayOn)
	state      []uint8         // per block: unread, read or written
	seen       int
	grads      []*layers.Grads
	computed   bool
	writesLeft int
}

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
// Losses are indexed by position in subnets.
//
// A READ records the live layer, not a copy; a subnet computes its step
// at its first WRITE. Before a WRITE changes layer L, every reader that
// still holds live L and has not computed yet is switched to one shared
// pre-write copy, so each subnet trains on exactly the values its READs
// observed. Under CSP no write to L can fall between a reader's READ of L
// and its step, so a CSP trace copies nothing; BSP and ASP traces copy
// exactly where their staleness is observable.
func ReplayOn(cfg Config, net *supernet.Numeric, subnets []supernet.Subnet, tr *trace.Trace) (Result, error) {
	cfg = cfg.withDefaults()
	src := data.NewSource(cfg.Dataset, cfg.Dim, cfg.BatchSize, cfg.Seed)
	ar := newArena(cfg.Dim)

	blocks := 0
	for _, sub := range subnets {
		blocks += len(sub.Choices)
	}
	pend := make([]pendingSubnet, len(subnets))
	posOf := make(map[int]int, len(subnets))
	views := make([]*layers.Layer, blocks)
	states := make([]uint8, blocks)
	for i, sub := range subnets {
		m := len(sub.Choices)
		pend[i] = pendingSubnet{sub: sub, views: views[:m:m], state: states[:m:m], writesLeft: m}
		views, states = views[m:], states[m:]
		posOf[sub.Seq] = i
	}
	losses := make([]float32, len(subnets))
	// liveReaders[L]: subnets whose READ of L recorded the live layer and
	// that may not have computed yet. Block is implied by L.
	liveReaders := make([][]*pendingSubnet, net.Space.NumLayers())

	for _, ev := range tr.Events {
		pos, ok := posOf[ev.Subnet]
		if !ok {
			return Result{}, fmt.Errorf("train: trace references unknown subnet %d", ev.Subnet)
		}
		p := &pend[pos]
		block, choice := cfg.Space.BlockChoice(ev.Layer)
		if block >= len(p.sub.Choices) || p.sub.Choices[block] != choice {
			return Result{}, fmt.Errorf("train: trace event %v does not match subnet %d's choice", ev, ev.Subnet)
		}
		live := net.At(block, choice)
		switch ev.Kind {
		case trace.Read:
			if p.state[block] != unread {
				return Result{}, fmt.Errorf("train: duplicate READ of block %d by subnet %d", block, ev.Subnet)
			}
			p.state[block] = read
			p.views[block] = live
			p.seen++
			liveReaders[ev.Layer] = append(liveReaders[ev.Layer], p)
		case trace.Write:
			switch p.state[block] {
			case unread:
				return Result{}, fmt.Errorf("train: subnet %d writes block %d it never read", ev.Subnet, block)
			case written:
				return Result{}, fmt.Errorf("train: duplicate WRITE of block %d by subnet %d", block, ev.Subnet)
			}
			if !p.computed {
				if p.seen != len(p.sub.Choices) {
					return Result{}, fmt.Errorf("train: subnet %d writes before completing reads (%d/%d)",
						ev.Subnet, p.seen, len(p.sub.Choices))
				}
				losses[pos], p.grads = step(cfg, src.Batch(p.sub.Seq), p.sub, p.views, ar)
				p.computed = true
			}
			var snap *layers.Layer
			for _, r := range liveReaders[ev.Layer] {
				if !r.computed {
					if snap == nil {
						snap = live.Clone()
					}
					r.views[block] = snap
				}
			}
			liveReaders[ev.Layer] = liveReaders[ev.Layer][:0]
			live.ApplySGD(p.grads[block], cfg.LR)
			p.state[block] = written
			p.views[block] = nil // lets a snapshot go before the replay ends
			p.writesLeft--
			if p.writesLeft == 0 {
				// Recycle the gradient set; the subnet is done.
				ar.release(p.grads)
				p.grads = nil
			}
		}
	}
	for i := range pend {
		if p := &pend[i]; p.writesLeft != 0 {
			return Result{}, fmt.Errorf("train: subnet %d has %d unwritten blocks at trace end", p.sub.Seq, p.writesLeft)
		}
	}
	return Result{Net: net, Losses: losses, Checksum: net.Checksum()}, nil
}

// StepOn runs one training step of the subnet against the live supernet
// — sequential semantics, the building block interactive explorers (e.g.
// GreedyNAS-style greedy sampling) use when the next subnet depends on
// the current weights. Returns the batch's average training loss.
func StepOn(cfg Config, net *supernet.Numeric, sub supernet.Subnet) float32 {
	cfg = cfg.withDefaults()
	src := data.NewSource(cfg.Dataset, cfg.Dim, cfg.BatchSize, cfg.Seed)
	ar := getArena(cfg.Dim)
	defer putArena(ar)
	views := ar.viewsBuf(len(sub.Choices))
	for b, c := range sub.Choices {
		views[b] = net.At(b, c)
	}
	loss, grads := step(cfg, src.Batch(sub.Seq), sub, views, ar)
	for b, c := range sub.Choices {
		net.At(b, c).ApplySGD(grads[b], cfg.LR)
	}
	ar.release(grads)
	return loss
}
