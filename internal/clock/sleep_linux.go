//go:build linux

package clock

import (
	"syscall"
	"time"
)

// osWaitBelow is where the Go timer stops costing a tick. Measured on
// go1.24 linux/amd64 with every P idle: time.Sleep returns ≈ 1.1 ms after
// a request of 10–500 µs and ≈ 2.2 ms after 1.5 ms, where nanosleep
// overshoots by ≈ 80 µs; from 2 ms up the two agree to ≈ 0.1 ms.
const osWaitBelow = 2 * time.Millisecond

// Sleep pauses the calling goroutine for at least d.
func Sleep(d time.Duration) {
	if 0 < d && d < osWaitBelow {
		osWait(d)
		return
	}
	time.Sleep(d)
}

// osWait blocks the calling thread in nanosleep(2) until d has elapsed. A
// signal handled on the thread (the runtime's preemption SIGURG included)
// ends the call with EINTR, so it resumes with the remainder the kernel
// reports: returning early would hand a task layers not resident yet.
func osWait(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var left syscall.Timespec
		if syscall.Nanosleep(&ts, &left) != syscall.EINTR {
			return
		}
		ts = left
	}
}
