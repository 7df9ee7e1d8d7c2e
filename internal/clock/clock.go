// Package clock is the wall-clock plane's short wait. The concurrent
// executor models a PCIe copy, a jittered kernel or a straggling stage as
// a wait of tens of microseconds, which a Go timer cannot resolve: once
// every P is idle the runtime parks in the netpoller, whose timeout is in
// whole milliseconds, so a stalled task costs a timer tick rather than its
// modelled copy. Sleep hands such waits to the OS timer on Linux and is
// time.Sleep elsewhere. It burns no CPU either way, and it cannot be
// cancelled: waits that must end with a context stay on Go timers.
package clock
