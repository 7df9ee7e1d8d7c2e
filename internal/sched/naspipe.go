// Package sched implements the scheduling policies the paper evaluates on
// the engine: NASPipe's CSP (with its three ablations), GPipe's BSP,
// PipeDream's ASP (1F1B), VPipe, and a sequential reference.
//
// A policy instance is stateful and single-use: construct a fresh one per
// engine.Run.
package sched

import "naspipe/internal/engine"

// NASPipeOptions toggle the three components ablated in §5.3.
type NASPipeOptions struct {
	// Reorder enables Algorithm 2's queue scan (the "scheduler"
	// component). Disabled, forwards are admitted strictly FIFO and a
	// blocked head stalls the stage (NASPipe w/o scheduler).
	Reorder bool
	// Predictor enables context switching with Algorithm 3 prefetch.
	// Disabled, the whole supernet stays in GPU memory (NASPipe w/o
	// predictor), shrinking the batch.
	Predictor bool
	// Mirroring enables per-subnet balanced partitions (NASPipe w/o
	// mirroring falls back to the static partition).
	Mirroring bool
	// CacheFactor sizes the parameter cache in subnet-partition multiples
	// when Predictor is on. The paper's configuration is 3 (current +
	// previous + prefetched).
	CacheFactor float64
}

// DefaultNASPipeOptions returns the paper's configuration.
func DefaultNASPipeOptions() NASPipeOptions {
	return NASPipeOptions{Reorder: true, Predictor: true, Mirroring: true, CacheFactor: 3}
}

// CSPPolicy is NASPipe's causal synchronous parallel policy: the
// engine's CSP admission — the one the goroutine plane runs too — under
// the memory and partition regime the options select.
type CSPPolicy struct {
	*engine.CSP
	name string
	opts NASPipeOptions
}

// NewNASPipe returns the full NASPipe policy.
func NewNASPipe() *CSPPolicy {
	return NewNASPipeWith("NASPipe", DefaultNASPipeOptions())
}

// NewNASPipeWith returns a named NASPipe variant with the given options
// (used for the §5.3 ablations).
func NewNASPipeWith(name string, opts NASPipeOptions) *CSPPolicy {
	if opts.CacheFactor <= 0 && opts.Predictor {
		opts.CacheFactor = 3
	}
	return &CSPPolicy{CSP: engine.NewCSP(opts.Reorder), name: name, opts: opts}
}

// Traits implements engine.Policy.
func (p *CSPPolicy) Traits() engine.Traits {
	t := p.CSP.Traits()
	t.Name = p.name
	t.UsePredictor = p.opts.Predictor
	t.PrefetchOnArrival = p.opts.Predictor
	if !p.opts.Mirroring {
		t.Partition = engine.PartitionStatic
	}
	if p.opts.Predictor { // without it the whole supernet stays resident
		t.CacheFactor = p.opts.CacheFactor
	}
	return t
}

// Guard: CSPPolicy must satisfy engine.Policy.
var _ engine.Policy = (*CSPPolicy)(nil)
