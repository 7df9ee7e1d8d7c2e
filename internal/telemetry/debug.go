// Debug HTTP endpoint: net/http/pprof profiles, expvar's standard vars,
// and a live telemetry snapshot, behind the cmds' -debug-addr flag.
//
//	naspipe-bench -concurrent -debug-addr localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile
//	curl http://localhost:6060/debug/telemetry
//
// Snapshot sourcing is per-server: each ServeDebug call (and each
// NewDebugMux) binds its own snapshot source, so two debug servers in
// one process report their own buses. /debug/vars serves only expvar's
// process-wide standard vars (cmdline, memstats); the engine counters
// are on /debug/telemetry.
package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// NewDebugMux builds the debug mux — /debug/pprof/*, /debug/vars, and
// /debug/telemetry serving snap() as JSON — without binding a listener,
// so a daemon can mount it on its own server. snap is this mux's
// private snapshot source (pass an aggregating closure to report many
// buses at once).
func NewDebugMux(snap func() Snapshot) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(snap())
	})
	return mux
}

// ServeDebug starts an HTTP server on addr exposing the debug mux, its
// /debug/telemetry bound to bus for the server's lifetime (a nil bus
// reports zeros). Returns the bound listener address (useful with ":0")
// and a shutdown function. The server runs until shutdown is called;
// serve errors after shutdown are ignored.
func ServeDebug(addr string, bus *Bus) (string, func(), error) {
	return ServeDebugMux(addr, NewDebugMux(bus.Snapshot))
}

// ServeDebugMux serves a pre-built debug mux on addr — for daemons that
// already constructed one with NewDebugMux and want it on an extra
// listener too. Same return contract as ServeDebug.
func ServeDebugMux(addr string, mux *http.ServeMux) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
