package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"naspipe"
	"naspipe/internal/obs"
	"naspipe/internal/telemetry"
)

// Server exposes a Scheduler over the versioned HTTP/JSON API. It is a
// plain http.Handler; mount it on any mux or serve it with telemetry.Serve.
// WithObs adds the observability plane (GET /metrics, HTTP-layer
// metrics, structured request logs); WithDebug mounts a debug handler
// under /debug/.
type Server struct {
	sched *Scheduler
	// followPoll is how often the events endpoint re-checks a live bus
	// in follow mode (test hook; 0 = 100ms).
	followPoll time.Duration

	logger  *slog.Logger
	metrics http.Handler // GET /metrics exposition (nil = route absent)
	debug   http.Handler // /debug/ mount (nil = route absent)
	reqSeq  atomic.Uint64

	httpReqs *obs.CounterVec // naspipe_service_requests_total{route,method,code}
	httpDur  *obs.Histogram  // naspipe_service_request_seconds
	inflight *obs.Gauge      // naspipe_service_inflight_requests
}

// NewServer wraps a scheduler in the API surface.
func NewServer(s *Scheduler) *Server { return &Server{sched: s} }

// WithObs attaches the observability plane: reg backs GET /metrics and
// hosts the HTTP-layer instruments; logger, when non-nil, receives one
// structured record per request, each carrying a per-request ID and —
// on job routes — the job ID, completing the correlation chain from an
// API call to the daemon's scheduler and supervision logs. Call before
// serving; returns s for chaining.
func (s *Server) WithObs(reg *obs.Registry, logger *slog.Logger) *Server {
	s.logger = logger
	s.metrics = reg.Handler()
	s.httpReqs = reg.CounterVec("naspipe_service_requests_total",
		"HTTP requests served, by route template, method, and status code.", "route", "method", "code")
	s.httpDur = reg.Histogram("naspipe_service_request_seconds",
		"HTTP request service time (streaming routes excluded).", nil)
	s.inflight = reg.Gauge("naspipe_service_inflight_requests",
		"HTTP requests currently in flight.")
	return s
}

// WithDebug mounts h under /debug/ (typically telemetry.NewDebugMux:
// pprof). Returns s for chaining.
func (s *Server) WithDebug(h http.Handler) *Server {
	s.debug = h
	return s
}

// writeJSON emits a JSON response body with status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr maps an error to its wire form. *APIError passes through
// with its canonical HTTP status; anything else is a 500 internal.
func writeErr(w http.ResponseWriter, err error) {
	ae, ok := err.(*APIError)
	if !ok {
		ae = &APIError{Code: CodeInternal, Message: err.Error()}
	}
	status := http.StatusInternalServerError
	switch ae.Code {
	case CodeInvalidSpec:
		status = http.StatusBadRequest
	case CodeQuotaExceeded, CodeBackpressure:
		status = http.StatusTooManyRequests
		ra := ae.RetryAfterSec
		if ra < 1 {
			ra = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(ra))
	case CodeNotFound, CodeUnsupportedVersion:
		status = http.StatusNotFound
	case CodeConflict:
		status = http.StatusConflict
	case CodeShuttingDown:
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorBody{Error: ae})
}

// statusWriter records the response status for metrics and request
// logs while passing Flush through (the events follow stream needs it).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() { flush(w.ResponseWriter) }

// routeLabel collapses a request path to its route template so the
// requests_total label set stays bounded no matter how many jobs exist.
func routeLabel(path string) (route, jobID string) {
	path = strings.TrimSuffix(path, "/")
	switch {
	case path == "" || path == "/":
		return "/", ""
	case path == "/metrics":
		return "/metrics", ""
	case strings.HasPrefix(path, "/debug"):
		return "/debug", ""
	}
	rest, ok := strings.CutPrefix(path, "/"+APIVersion)
	if !ok || (rest != "" && rest[0] != '/') {
		return "unversioned", ""
	}
	rest = strings.TrimPrefix(rest, "/")
	switch {
	case rest == "version", rest == "jobs":
		return "/" + APIVersion + "/" + rest, ""
	case strings.HasPrefix(rest, "jobs/"):
		id, verb, _ := strings.Cut(strings.TrimPrefix(rest, "jobs/"), "/")
		tmpl := "/" + APIVersion + "/jobs/{id}"
		if verb != "" {
			tmpl += "/" + verb
		}
		return tmpl, id
	}
	return "other", ""
}

// ServeHTTP is the observability middleware around the router: it
// stamps a request ID, serves /metrics and /debug/ when mounted,
// records the HTTP-layer metrics, and emits one structured log record
// per request (with the job ID on job routes).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route, jobID := routeLabel(r.URL.Path)
	switch {
	case route == "/metrics" && s.metrics != nil:
		s.metrics.ServeHTTP(w, r)
		return
	case route == "/debug" && s.debug != nil:
		s.debug.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	reqID := fmt.Sprintf("r%06d", s.reqSeq.Add(1))
	sw := &statusWriter{ResponseWriter: w}
	s.inflight.Inc()
	s.route(sw, r)
	s.inflight.Dec()
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	dur := time.Since(start)
	s.httpReqs.With(route, r.Method, strconv.Itoa(sw.status)).Inc()
	s.httpDur.Observe(dur.Seconds())
	if s.logger != nil {
		attrs := []any{"req", reqID, "method", r.Method, "path", r.URL.Path,
			"route", route, "status", sw.status, "dur_ms", dur.Milliseconds()}
		if jobID != "" {
			attrs = append(attrs, "job", jobID)
		}
		s.logger.Info("http request", attrs...)
	}
}

// route dispatches the versioned API. Version negotiation is explicit:
// a path outside /v1/ gets a structured 404 naming the supported
// versions, never a silent fallback to a different behavior.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimSuffix(r.URL.Path, "/")
	if path == "" {
		writeJSON(w, http.StatusOK, VersionInfo{Version: APIVersion, Supported: []string{APIVersion}})
		return
	}
	rest, ok := strings.CutPrefix(path, "/"+APIVersion)
	if !ok || (rest != "" && rest[0] != '/') {
		writeErr(w, &APIError{Code: CodeUnsupportedVersion,
			Message: fmt.Sprintf("path %q is outside the supported API versions [%s]", r.URL.Path, APIVersion)})
		return
	}
	rest = strings.TrimPrefix(rest, "/")
	switch {
	case rest == "version" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, VersionInfo{Version: APIVersion, Supported: []string{APIVersion}})
	case rest == "jobs":
		s.jobs(w, r)
	case strings.HasPrefix(rest, "jobs/"):
		s.job(w, r, strings.TrimPrefix(rest, "jobs/"))
	default:
		writeErr(w, &APIError{Code: CodeNotFound, Message: fmt.Sprintf("no route %q under /%s", rest, APIVersion)})
	}
}

// jobs handles the collection: POST submit, GET list.
func (s *Server) jobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			writeErr(w, &APIError{Code: CodeInvalidSpec, Message: err.Error()})
			return
		}
		var spec naspipe.JobSpec
		dec := json.NewDecoder(strings.NewReader(string(body)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeErr(w, &APIError{Code: CodeInvalidSpec, Message: fmt.Sprintf("malformed JobSpec: %v", err)})
			return
		}
		st, err := s.sched.Submit(spec)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	case http.MethodGet:
		stats := s.sched.Stats()
		writeJSON(w, http.StatusOK, JobList{
			Jobs:  s.sched.List(r.URL.Query().Get("tenant")),
			Stats: &stats,
		})
	default:
		w.Header().Set("Allow", "GET, POST")
		writeErr(w, &APIError{Code: CodeNotFound, Message: fmt.Sprintf("method %s not supported on /%s/jobs", r.Method, APIVersion)})
	}
}

// job handles one job's subtree: status, cancel, resume, events,
// checkpoint.
func (s *Server) job(w http.ResponseWriter, r *http.Request, rest string) {
	id, verb, _ := strings.Cut(rest, "/")
	switch {
	case verb == "" && r.Method == http.MethodGet:
		st, err := s.sched.Get(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case verb == "cancel" && r.Method == http.MethodPost:
		st, err := s.sched.Cancel(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case verb == "resume" && r.Method == http.MethodPost:
		st, err := s.sched.Resume(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	case verb == "events" && r.Method == http.MethodGet:
		s.events(w, r, id)
	case verb == "checkpoint" && r.Method == http.MethodGet:
		path, err := s.sched.CheckpointFile(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		buf, rerr := os.ReadFile(path)
		if rerr != nil {
			writeErr(w, &APIError{Code: CodeInternal, Message: rerr.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf)
	default:
		writeErr(w, &APIError{Code: CodeNotFound,
			Message: fmt.Sprintf("no route %q for job %q (verbs: cancel, resume, events, checkpoint)", verb, id)})
	}
}

// events streams the job's telemetry as JSONL. Plain GET returns the
// events so far; ?follow=1 keeps the connection open, appending new
// events until the job reaches a terminal state. Ring-buffer overflow
// truncates the oldest events — consumers needing a complete stream
// should size the bus (SchedulerConfig.EventBufSize) for the job.
func (s *Server) events(w http.ResponseWriter, r *http.Request, id string) {
	follow := r.URL.Query().Get("follow") != ""
	evs, done, err := s.sched.Events(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if err := telemetry.WriteJSONL(w, evs); err != nil {
		return
	}
	if !follow || done == nil {
		return
	}
	flush(w)
	poll := s.followPoll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	written := len(evs)
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		var final bool
		select {
		case <-r.Context().Done():
			return
		case <-done:
			final = true
		case <-tick.C:
		}
		evs, _, err := s.sched.Events(id)
		if err != nil {
			return
		}
		if len(evs) > written {
			if err := telemetry.WriteJSONL(w, evs[written:]); err != nil {
				return
			}
			written = len(evs)
			flush(w)
		}
		if final {
			return
		}
	}
}

func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}
