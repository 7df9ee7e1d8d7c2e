package train

import (
	"sync"

	"naspipe/internal/data"
	"naspipe/internal/supernet"
)

// Checkpointer incrementally materializes the sequential-prefix weight
// state of a subnet stream, so checkpoint cuts can carry a weight
// checksum without retraining the prefix from scratch at every save.
// ChecksumAt(cursor) is the checksum a fresh Sequential run over
// subnets[:cursor] would produce; cursors normally arrive monotonically
// (the engine's frontier only advances) and each call then trains only
// the delta. A regressed cursor falls back to a from-scratch rebuild.
type Checkpointer struct {
	mu   sync.Mutex
	cfg  Config
	subs []supernet.Subnet
	net  *supernet.Numeric
	src  *data.Source
	ar   *arena
	done int // subnets [0, done) are applied to net
}

// NewCheckpointer builds a checkpointer over the full subnet stream.
func NewCheckpointer(cfg Config, subs []supernet.Subnet) *Checkpointer {
	cfg = cfg.withDefaults()
	return &Checkpointer{
		cfg:  cfg,
		subs: subs,
		net:  supernet.BuildNumeric(cfg.Space, cfg.Dim, cfg.Seed),
		src:  data.NewSource(cfg.Dataset, cfg.Dim, cfg.BatchSize, cfg.Seed),
		ar:   newArena(cfg.Dim),
	}
}

// ChecksumAt returns the sequential weight checksum after the first
// cursor subnets. Safe for concurrent use.
func (c *Checkpointer) ChecksumAt(cursor int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cursor > len(c.subs) {
		cursor = len(c.subs)
	}
	if cursor < c.done {
		c.net = supernet.BuildNumeric(c.cfg.Space, c.cfg.Dim, c.cfg.Seed)
		c.done = 0
	}
	for ; c.done < cursor; c.done++ {
		sub := c.subs[c.done]
		stepOn(c.cfg, c.net, sub, c.src.Batch(sub.Seq), c.ar)
	}
	return c.net.Checksum()
}
