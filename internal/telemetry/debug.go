// Debug HTTP endpoint behind the -debug-addr flags: net/http/pprof
// profiles and an obs registry's Prometheus text on /metrics — the one
// format, and with the daemon's API listener the one place, a process
// serves its live counters.
//
//	naspipe-bench -concurrent -debug-addr localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile
//	curl http://localhost:6060/metrics
//
// A CLI registers its run's bus (Register with Bus.Counters); the daemon
// serves its whole registry, where the same Register reads finished
// jobs' totals plus every live bus. Memstats and the command line are on
// /debug/pprof/heap?debug=1 and /debug/pprof/cmdline.
package telemetry

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"naspipe/internal/obs"
)

// NewDebugMux builds the debug mux — /debug/pprof/* and /metrics serving
// reg — without binding a listener, so a daemon can also mount it on its
// own server. A nil reg serves an empty exposition.
func NewDebugMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", reg.Handler())
	return mux
}

// Serve binds addr (host:port; :0 picks a free port) and serves h on it
// until the returned stop is called, which lets in-flight requests finish
// for up to 5s. Returns the bound address.
func Serve(addr string, h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	return ln.Addr().String(), stop, nil
}
