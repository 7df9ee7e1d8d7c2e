//go:build !linux

package clock

import "time"

// Sleep pauses the calling goroutine for at least d. Package syscall has no
// Nanosleep off Linux, and kqueue and IOCP waits are not millisecond-rounded.
func Sleep(d time.Duration) { time.Sleep(d) }
