package csp

import (
	"fmt"
	"testing"

	"naspipe/internal/partition"
	"naspipe/internal/supernet"
)

// Admission-path benchmarks: Schedule is called on every stage-loop
// iteration of the concurrent executor, and ScheduleAssuming on every
// predictor lookahead — both sit on the per-task hot path, so their cost
// at large in-flight windows bounds pipeline throughput.

// streamInfos samples an n-subnet stream from the headline NLP space and
// returns what stage 0 of 8 registers for it.
func streamInfos(n int) []SubnetInfo {
	sn := supernet.Build(supernet.NLPc1)
	infos := make([]SubnetInfo, n)
	for i, sub := range supernet.Sample(supernet.NLPc1, 3, n) {
		p := partition.Balanced(partition.SubnetCosts(nil, sn, sub), 8)
		lo, hi := p.Blocks(0)
		var stageIDs []supernet.LayerID
		for blk := lo; blk < hi; blk++ {
			stageIDs = append(stageIDs, sn.Space.ID(blk, sub.Choices[blk]))
		}
		infos[i] = SubnetInfo{Seq: sub.Seq, AllLayers: sub.LayerIDs(sn.Space), StageLayers: stageIDs}
	}
	return infos
}

func register(b testing.TB, infos []SubnetInfo) *Scheduler {
	b.Helper()
	s := New(0)
	for _, in := range infos {
		if err := s.AddSubnet(in); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// benchScheduler builds a stage-0 scheduler with n registered subnets
// and a queue holding all of them.
func benchScheduler(b testing.TB, n int) (*Scheduler, []int) {
	b.Helper()
	queue := make([]int, n)
	for i := range queue {
		queue[i] = i
	}
	return register(b, streamInfos(n)), queue
}

func BenchmarkScheduleWindow(b *testing.B) {
	for _, n := range []int{16, 96} {
		b.Run(fmt.Sprintf("window=%d", n), func(b *testing.B) {
			s, queue := benchScheduler(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(queue)
			}
		})
	}
}

func BenchmarkScheduleAssuming(b *testing.B) {
	for _, n := range []int{16, 96} {
		b.Run(fmt.Sprintf("window=%d", n), func(b *testing.B) {
			s, queue := benchScheduler(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ScheduleAssuming(queue, queue[0])
			}
		})
	}
}

// streamWindow is the engine's default in-flight limit at D=4.
const streamWindow = 12

// stream is a scheduler with a whole stream registered up front — what
// both executors do — and the state of an engine-shaped drive over it.
type stream struct {
	s              *Scheduler
	infos          []SubnetInfo
	next           int
	queue, running []int
}

func newStream(b testing.TB, infos []SubnetInfo) *stream {
	return &stream{s: register(b, infos), infos: infos,
		queue: make([]int, 0, streamWindow), running: make([]int, 0, len(infos))}
}

// retire drives the stream the way a stage goroutine does (and
// bench/probes.go's probeCSP): admit from a window of streamWindow queued
// forwards, retire the oldest admitted subnet whenever every queued
// forward is blocked. It returns after limit retirements or at the end of
// the stream, with the number retired.
func (d *stream) retire(limit int) int {
	retired := 0
	for retired < limit {
		for len(d.queue) < streamWindow && d.next < len(d.infos) {
			d.queue = append(d.queue, d.next)
			d.next++
		}
		if qi, seq := d.s.Schedule(d.queue); qi >= 0 {
			d.queue = append(d.queue[:qi], d.queue[qi+1:]...)
			d.running = append(d.running, seq)
			continue
		}
		if len(d.running) == 0 {
			break
		}
		seq := d.running[0]
		d.running = d.running[1:]
		d.s.MarkWritten(seq, d.infos[seq].AllLayers)
		d.s.MarkFinished(seq)
		retired++
	}
	return retired
}

// benchStream reports the admission cost per subnet of an n-subnet
// stream: one op is one subnet admitted and retired. Registration is
// outside the timer, so the pinned allocs/op is the drive's alone.
func benchStream(b *testing.B, n int) {
	infos := streamInfos(n)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		d := newStream(b, infos)
		b.StartTimer()
		done += d.retire(b.N - done)
	}
}

// BenchmarkScheduleStream is the guard against admission cost growing
// with the stream: per-subnet time must not depend on how many future
// subnets are registered behind the window.
func BenchmarkScheduleStream(b *testing.B) {
	for _, n := range []int{256, 2048, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchStream(b, n) })
	}
}

// BenchmarkScheduleStreamRef is the same drive fixed at a 256-subnet
// stream, under the sub-benchmark name naspipe-benchguard pairs with
// BenchmarkScheduleStream/n=16384: the pinned same-run ratio is
// per-subnet time at n=16384 over per-subnet time at n=256, ≈ 1 while
// admission looks only at queue heads and ≈ n/256 if it scans the stream.
func BenchmarkScheduleStreamRef(b *testing.B) {
	b.Run("n=16384", func(b *testing.B) { benchStream(b, 256) })
}
