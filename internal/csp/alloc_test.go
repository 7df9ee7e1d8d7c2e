package csp

import "testing"

// TestAdmissionPathDoesNotAllocate pins every per-task scheduler call at
// zero allocations: the admission scans (the lookahead assumption set is
// scanned as a slice, never materialized into a map), the blocking-writer
// lookup behind pending-backward carries, and the note that unlinks a
// subnet's queue entries.
func TestAdmissionPathDoesNotAllocate(t *testing.T) {
	s, queue := benchScheduler(t, 256)
	infos := streamInfos(256)
	written := 0
	for name, call := range map[string]func(){
		"Schedule":         func() { s.Schedule(queue) },
		"ScheduleAssuming": func() { s.ScheduleAssuming(queue, queue[0], queue[1]) },
		"Blocked":          func() { s.Blocked(queue[len(queue)-1]) },
		"BlockingWriter":   func() { s.BlockingWriter(queue[len(queue)-1]) },
		"MarkWritten": func() { // a fresh subnet per call: there are entries to unlink
			s.MarkWritten(written, infos[written].AllLayers)
			written++
		},
	} {
		if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
			t.Errorf("%s allocated %.1f times per call, want 0", name, allocs)
		}
	}
}

// TestAddSubnetAllocatesOncePerChunk pins registration — both executors
// register the whole stream in every stage's scheduler — at one
// allocation per writerChunk queue entries plus the amortised growth of
// the subnet window and the layer table: registering a subnet costs no
// allocation of its own.
func TestAddSubnetAllocatesOncePerChunk(t *testing.T) {
	const n = 1024
	infos := streamInfos(n)
	entries := 0
	for _, in := range infos {
		entries += len(in.AllLayers)
	}
	chunks := (entries + writerChunk - 1) / writerChunk
	allocs := testing.AllocsPerRun(5, func() { register(t, infos) })
	if allocs > float64(chunks+32) {
		t.Fatalf("registering %d subnets (%d queue entries) allocated %.0f times, want at most one per %d entries (%d) plus slice growth",
			n, entries, allocs, writerChunk, chunks)
	}
}
