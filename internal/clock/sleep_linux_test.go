//go:build linux

package clock

import (
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestOSWaitResumesAfterSignal interrupts a 20 ms osWait every millisecond
// with the signal the Go runtime itself uses for preemption. nanosleep(2)
// is never restarted after a handled signal, so a single call returns
// within the first millisecond; osWait must sleep the remainder out.
func TestOSWaitResumesAfterSignal(t *testing.T) {
	const d = 20 * time.Millisecond
	tid := make(chan int)
	done := make(chan time.Duration)
	go func() {
		runtime.LockOSThread() // signals are aimed at this thread
		defer runtime.UnlockOSThread()
		tid <- syscall.Gettid()
		start := time.Now()
		osWait(d)
		done <- time.Since(start)
	}()
	target := <-tid

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := syscall.Tgkill(syscall.Getpid(), target, syscall.SIGURG); err != nil {
					t.Errorf("tgkill: %v", err)
					return
				}
			}
		}
	}()
	got := <-done
	close(stop)
	wg.Wait()
	if got < d {
		t.Fatalf("osWait(%v) under SIGURG returned after %v", d, got)
	}
}
