package engine

import (
	"strings"
	"testing"
)

// TestRunProbeSemantics pins the probe contract the watchdog relies on:
// the two progress signals are monotone (even across re-attaches, i.e.
// incarnations), parks and state publishes without taskDone move
// neither, and attach resets the per-stage table to -1 sentinels.
func TestRunProbeSemantics(t *testing.T) {
	p := &RunProbe{}
	p.attach(4, 3)
	if f, n := p.Progress(); f != 3 || n != 0 {
		t.Fatalf("fresh probe progress = (%d, %d), want (3, 0)", f, n)
	}
	snap := p.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d stages, want 4", len(snap))
	}
	for k, h := range snap {
		if h.Stage != k || h.BlockedHead != -1 || h.OwnerSubnet != -1 {
			t.Fatalf("stage %d not reset to sentinels: %+v", k, h)
		}
	}

	// State-only publishes (parks) update the table but not progress.
	p.publish(StageHealth{Stage: 1, QueueLen: 2, BlockedHead: 5, OwnerSubnet: 4}, false)
	if _, n := p.Progress(); n != 0 {
		t.Fatalf("park publish counted as progress: %d tasks", n)
	}
	if h := p.Snapshot()[1]; h.QueueLen != 2 || h.BlockedHead != 5 || h.OwnerSubnet != 4 {
		t.Fatalf("published health lost: %+v", h)
	}

	// Task completions and frontier commits are the progress signals.
	p.publish(StageHealth{Stage: 1, FwdDone: 1}, true)
	p.publish(StageHealth{Stage: 2, FwdDone: 1}, true)
	p.advanceFrontier(7)
	p.advanceFrontier(5) // stale commit must not regress
	if f, n := p.Progress(); f != 7 || n != 2 {
		t.Fatalf("progress = (%d, %d), want (7, 2)", f, n)
	}

	// Re-attach for a resumed incarnation: table resets, signals hold.
	p.attach(2, 0)
	if f, n := p.Progress(); f != 7 || n != 2 {
		t.Fatalf("re-attach regressed progress to (%d, %d)", f, n)
	}
	if snap := p.Snapshot(); len(snap) != 2 || snap[1].FwdDone != 0 {
		t.Fatalf("re-attach kept stale stage state: %+v", snap)
	}

	// Out-of-range publishes (stale goroutine of a wider incarnation)
	// must not panic or corrupt the table.
	p.publish(StageHealth{Stage: 3, FwdDone: 9}, true)
	if f, n := p.Progress(); f != 7 || n != 3 {
		t.Fatalf("out-of-range publish mishandled: (%d, %d)", f, n)
	}

	// A remote heartbeat reports every task its stage completed since
	// the last one in a single publish.
	p.Publish(StageHealth{Stage: 0, BwdDone: 4}, 4)
	p.Publish(StageHealth{Stage: 0, BwdDone: 4}, 0)
	if _, n := p.Progress(); n != 7 || p.Snapshot()[0].BwdDone != 4 {
		t.Fatalf("heartbeat publishes counted %d tasks (want 7), stage 0 %+v", n, p.Snapshot()[0])
	}
}

// TestStallErrorDump is the seeded deadlock fixture: the dump must name
// every stage's counters, the blocked head with its owning subnet, and
// flag a wedged stage.
func TestStallErrorDump(t *testing.T) {
	e := &StallError{Completed: 5, Total: 18, Stages: []StageHealth{
		{Stage: 0, FwdDone: 9, BwdDone: 5, BlockedHead: -1, OwnerSubnet: -1},
		{Stage: 1, FwdDone: 6, BwdDone: 5, QueueLen: 3, BlockedHead: 6, OwnerSubnet: 2},
		{Stage: 2, FwdDone: 6, BwdDone: 6, BlockedHead: -1, OwnerSubnet: -1, Wedged: true},
	}}
	msg := e.Error()
	for _, frag := range []string{
		"stalled at 5/18 subnets",
		"stage 1: fwd 6 bwd 5, queued 3 fwd / 0 bwd",
		"head subnet 6 blocked by subnet 2",
		"stage 2",
		"WEDGED",
	} {
		if !strings.Contains(msg, frag) {
			t.Errorf("stall dump lacks %q:\n%s", frag, msg)
		}
	}
}
