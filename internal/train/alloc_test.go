package train

import (
	"testing"

	"naspipe/internal/data"
	"naspipe/internal/supernet"
)

// TestStepComputePathIsAllocationFree pins the arena contract: once the
// scratch buffers are warm, a full subnet step — every block's forward
// over the batch, the loss, every block's backward with its gradient
// accumulation — performs zero heap allocations.
// Batch generation is the data plane's job and is excluded by fetching
// the batch outside the measured region, exactly as the trainers do.
// A future PR that reintroduces per-task garbage on this path fails here
// before it shows up in a profile.
func TestStepComputePathIsAllocationFree(t *testing.T) {
	sp := supernet.NLPc3.Scaled(6, 3)
	cfg := benchCfg(sp, 12).withDefaults()
	net := supernet.BuildNumeric(sp, cfg.Dim, cfg.Seed)
	sub := supernet.Sample(sp, 1, 1)[0]
	src := data.NewSource(cfg.Dataset, cfg.Dim, cfg.BatchSize, cfg.Seed)
	batch := src.Batch(sub.Seq)

	ar := newArena(cfg.Dim)
	m := len(sub.Choices)
	ar.begin(batch, m) // warm: the first begin sizes the buffers
	for b, c := range sub.Choices {
		ar.grads[b] = net.At(b, c).NewGrads()
	}
	blocks := func() {
		ar.begin(batch, m)
		for b, c := range sub.Choices {
			ar.forward(b, net.At(b, c))
		}
		for b := m - 1; b >= 0; b-- {
			ar.grads[b].Reset()
			ar.backward(b, net.At(b, sub.Choices[b]))
		}
	}

	allocs := testing.AllocsPerRun(50, blocks)
	if allocs != 0 {
		t.Fatalf("step compute path allocated %.1f times per run, want 0", allocs)
	}
}

// TestStepArenaReuseIsValueIdentical proves buffer reuse cannot change
// results: training the same stream through the arena path twice (fresh
// arena vs warm reused arena) produces bitwise-identical weights.
func TestStepArenaReuseIsValueIdentical(t *testing.T) {
	sp := supernet.NLPc3.Scaled(6, 3)
	cfg := benchCfg(sp, 12)
	subs := supernet.Sample(sp, 1, 12)

	a := Sequential(cfg, subs)
	b := Sequential(cfg, subs)
	if a.Checksum != b.Checksum {
		t.Fatalf("repeat sequential runs diverged: %#x vs %#x", a.Checksum, b.Checksum)
	}

	// StepOn recycles arenas through a pool; a second pass over the same
	// stream on a fresh net must land on the same weights as Sequential.
	net := supernet.BuildNumeric(sp, 12, cfg.Seed)
	for _, sub := range subs {
		StepOn(cfg, net, sub)
	}
	if got := net.Checksum(); got != a.Checksum {
		t.Fatalf("StepOn stream checksum %#x, want Sequential's %#x", got, a.Checksum)
	}
}
