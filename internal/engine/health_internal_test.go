package engine

import (
	"strings"
	"testing"
)

// TestRunProbeSemantics pins the probe contract the watchdog relies on:
// the two progress signals are monotone (even across re-attaches, i.e.
// incarnations); a publish counts as progress exactly the tasks its row
// grew by since the stage's previous row, never a negative amount, so
// parks and state-only publishes move neither signal; and Attach resets
// the per-stage table to -1 sentinels.
func TestRunProbeSemantics(t *testing.T) {
	p := &RunProbe{}
	p.Attach(4, 3)
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
	p.Publish(StageHealth{Stage: 1, QueueLen: 2, BlockedHead: 5, OwnerSubnet: 4})
	if _, n := p.Progress(); n != 0 {
		t.Fatalf("park publish counted as progress: %d tasks", n)
	}
	if h := p.Snapshot()[1]; h.QueueLen != 2 || h.BlockedHead != 5 || h.OwnerSubnet != 4 || h.LastTaskNs != 0 {
		t.Fatalf("published health lost: %+v", h)
	}

	// Task completions and frontier commits are the progress signals; a
	// row that grew is stamped with the completion time.
	p.Publish(StageHealth{Stage: 1, FwdDone: 1})
	p.Publish(StageHealth{Stage: 2, FwdDone: 1})
	p.AdvanceFrontier(7)
	p.AdvanceFrontier(5) // stale commit must not regress
	if f, n := p.Progress(); f != 7 || n != 2 {
		t.Fatalf("progress = (%d, %d), want (7, 2)", f, n)
	}
	stamped := p.Snapshot()[1].LastTaskNs
	if stamped == 0 {
		t.Fatal("a completed task left the row unstamped")
	}
	p.Publish(StageHealth{Stage: 1, FwdDone: 1, QueueLen: 1, LastTaskNs: 1})
	if h := p.Snapshot()[1]; h.LastTaskNs != stamped {
		t.Fatalf("a publish without a completion restamped the row: %d, want %d", h.LastTaskNs, stamped)
	}

	// Re-attach for a resumed incarnation: table resets, signals hold.
	p.Attach(2, 0)
	if f, n := p.Progress(); f != 7 || n != 2 {
		t.Fatalf("re-attach regressed progress to (%d, %d)", f, n)
	}
	if snap := p.Snapshot(); len(snap) != 2 || snap[1].FwdDone != 0 {
		t.Fatalf("re-attach kept stale stage state: %+v", snap)
	}

	// Out-of-range publishes (stale goroutine of a wider incarnation)
	// neither panic, nor count, nor touch the table.
	p.Publish(StageHealth{Stage: 3, FwdDone: 9})
	p.Publish(StageHealth{Stage: -1, FwdDone: 9})
	if f, n := p.Progress(); f != 7 || n != 2 || len(p.Snapshot()) != 2 {
		t.Fatalf("out-of-range publish mishandled: (%d, %d), %d rows", f, n, len(p.Snapshot()))
	}

	// A remote heartbeat reports every task its stage completed since
	// the last beat in a single publish, and a repeated beat adds
	// nothing. A row that shrank counts zero, never a negative amount,
	// and becomes the baseline the next row grows from: the counter
	// stays monotone whatever rows arrive.
	p.Publish(StageHealth{Stage: 0, FwdDone: 2, BwdDone: 2})
	p.Publish(StageHealth{Stage: 0, FwdDone: 2, BwdDone: 2})
	if _, n := p.Progress(); n != 6 || p.Snapshot()[0].BwdDone != 2 {
		t.Fatalf("heartbeat publishes counted %d tasks (want 6), stage 0 %+v", n, p.Snapshot()[0])
	}
	p.Publish(StageHealth{Stage: 0, FwdDone: 1, BwdDone: 1})
	p.Publish(StageHealth{Stage: 0, FwdDone: 3, BwdDone: 2})
	if _, n := p.Progress(); n != 9 {
		t.Fatalf("shrunk then regrown row counted %d tasks in all, want 9", n)
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
