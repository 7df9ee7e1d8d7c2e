package csp

import (
	"fmt"
	"strings"
	"time"
)

// StageHealth is one pipeline stage's view of itself, as its own
// scheduler knows it — under CSP no stage sees the whole pipeline, so
// this row is the only place its blocked L_q head and that head's
// precedence owner exist: task counters, queue depths, the blocked
// queue head and the subnet whose unfinished WRITE blocks it, cache
// residency, the wall-clock stamp of the stage's last completed task,
// and whether it is wedged. Sequence IDs are global; -1 means none.
//
// The record lives here, beside the scheduler state it reports,
// because both planes that carry it reach this package: the engine
// publishes it into its health probe, and the transport encodes it in
// a fleet worker's heartbeat (engine imports transport, so neither can
// hold it for the other).
type StageHealth struct {
	Stage       int
	FwdDone     int
	BwdDone     int
	QueueLen    int // L_q: forwards whose input arrived but did not run yet
	BwdQueueLen int // backwards ready to run

	BlockedHead int // global seq at the head of the forward queue (-1: empty)
	OwnerSubnet int // global seq of the unfinished writer blocking the head (-1: unblocked)

	CacheResidentBytes int64 // bytes resident in the stage cache (0 when disabled)
	LastTaskNs         int64 // wall-clock ns of the last completed task (0: none yet)
	Wedged             bool  // stage goroutine is hung at a task boundary (fault plane)
}

// Line renders the row as one line of a stall dump, aging the last
// completion against now (wall-clock ns). The lost-wake-up error and
// the watchdog's diagnosis both print it, so one state reads the same
// in either.
func (h StageHealth) Line(now int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage %d: fwd %d bwd %d, queued %d fwd / %d bwd",
		h.Stage, h.FwdDone, h.BwdDone, h.QueueLen, h.BwdQueueLen)
	if h.BlockedHead >= 0 {
		fmt.Fprintf(&b, ", head subnet %d", h.BlockedHead)
		if h.OwnerSubnet >= 0 {
			fmt.Fprintf(&b, " blocked by subnet %d", h.OwnerSubnet)
		}
	}
	if h.CacheResidentBytes > 0 {
		fmt.Fprintf(&b, ", cache %d B resident", h.CacheResidentBytes)
	}
	if h.LastTaskNs > 0 {
		fmt.Fprintf(&b, ", last task %v ago", time.Duration(now-h.LastTaskNs).Round(time.Millisecond))
	}
	if h.Wedged {
		b.WriteString(", WEDGED")
	}
	return b.String()
}
