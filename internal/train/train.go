// Package train is the numeric plane of NASPipe-Go: it turns scheduled
// parameter-access orders into actual float32 weights, making the paper's
// reproducibility claims mechanically checkable.
//
// Two trainers exist, and both run a subnet's step as per-block tasks:
// each block's forward over the batch, its backward (summing the block's
// gradient over items in item order), and its SGD write. Sequential runs
// them one subnet after another, strictly in order — the semantics every
// exploration algorithm assumes (§2.1) and the definition of the
// "correct" result. Replay executes an engine trace: each READ event
// fixes the parameters the block's forward and backward will use (the
// layer's values at that moment, copied only if a WRITE would change
// them first), and each WRITE event applies that subnet's gradient for
// the layer to the live parameters. Only the per-layer order the trace
// fixes orders the tasks, so the blocks of subnets that share no pending
// layer run at once, on up to GOMAXPROCS goroutines. A CSP trace
// replays to bitwise the same weights as Sequential on any GPU count and
// any worker count (Definition 1); BSP and ASP traces read stale
// parameters and diverge as the cluster size changes the interleaving
// (Table 3).
package train

import (
	"naspipe/internal/data"
	"naspipe/internal/supernet"
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
		losses[i] = stepOn(cfg, net, sub, src.Batch(sub.Seq), ar)
	}
	return Result{Net: net, Losses: losses, Checksum: net.Checksum()}
}

// StepOn runs one training step of the subnet against the live supernet,
// with sequential semantics, and returns the batch's average training
// loss. It is Sequential's loop body for a caller that holds no run
// state, such as the train-step probe.
func StepOn(cfg Config, net *supernet.Numeric, sub supernet.Subnet) float32 {
	cfg = cfg.withDefaults()
	src := data.NewSource(cfg.Dataset, cfg.Dim, cfg.BatchSize, cfg.Seed)
	ar := getArena(cfg.Dim)
	defer putArena(ar)
	return stepOn(cfg, net, sub, src.Batch(sub.Seq), ar)
}
