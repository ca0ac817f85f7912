package main

// HTTP-layer observability: per-request trace IDs, structured JSON
// request logs, HTTP metrics, the Prometheus /metrics endpoint and the
// slow-query log. The engine-side metrics (query latency, caches,
// fan-out, name index) live in the collection's registry; this file
// adds the server's own registry for transport-level series and writes
// both on a scrape.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mhxquery"
	"mhxquery/internal/obs"
)

// traceHeader is the request/response header carrying the trace ID.
const traceHeader = "X-Trace-Id"

// traceKey is the context key the trace ID travels under; the same
// context flows into query evaluation (queryContext derives from the
// request context), so the ID a slow-query log line reports is the one
// the evaluation actually ran with.
type traceKey struct{}

// traceID returns the trace ID carried by ctx ("" when absent).
func traceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// newTraceID returns a fresh 16-hex-digit random trace ID.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant ID keeps
		// requests serving rather than panicking in the middleware.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// httpMetrics is the server's transport-level metric set.
type httpMetrics struct {
	reg *obs.Registry
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{reg: obs.NewRegistry()}
}

// observe records one completed request.
func (m *httpMetrics) observe(route string, status int, d time.Duration) {
	m.reg.Counter("mhserve_http_requests_total",
		"HTTP requests by normalized route and status code.",
		obs.L("route", route), obs.L("status", strconv.Itoa(status))).Inc()
	m.reg.Histogram("mhserve_http_request_seconds",
		"HTTP request duration in seconds by normalized route.",
		obs.LatencyBuckets, obs.L("route", route)).Observe(d.Seconds())
}

// normalizeRoute collapses request paths onto the route patterns of
// routes(), so the route label stays low-cardinality no matter what
// paths clients send. (http.Request.Pattern would do this for us, but
// it needs a newer Go than the module targets.)
func normalizeRoute(path string) string {
	switch path {
	case "/healthz", "/readyz", "/metrics", "/docs", "/query", "/update":
		return path
	}
	if strings.HasPrefix(path, "/docs/") {
		return "/docs/{name}"
	}
	return "other"
}

// statusWriter records the status code and body size written through
// it. It forwards Flush so NDJSON streaming (?stream=1) keeps flushing
// per row through the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withObs wraps the API mux with the observability middleware: assign
// (or honor) the request's trace ID, propagate it through the request
// context into query evaluation, echo it on the response, record the
// request metrics, and emit one structured log line per request.
func (s *server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		trace := r.Header.Get(traceHeader)
		if trace == "" {
			trace = newTraceID()
		}
		w.Header().Set(traceHeader, trace)
		r = r.WithContext(context.WithValue(r.Context(), traceKey{}, trace))
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		route := normalizeRoute(r.URL.Path)
		s.httpM.observe(route, sw.status, elapsed)
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("trace", trace),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", elapsed),
		)
	})
}

// handleMetrics serves both registries — the engine's (query latency,
// caches, fan-out, name index) and the server's (HTTP series) — as one
// Prometheus text document.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.coll.Metrics().WritePrometheus(w); err != nil {
		return
	}
	s.httpM.reg.WritePrometheus(w)
}

// handleReadyz reports readiness: 503 while the collection is still
// opening (write-ahead log replay after a restart or crash), 200 while
// serving, 503 again once the server starts draining (graceful
// shutdown), so load balancers route work only to a replayed,
// non-draining process.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "recovering"})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// logSlowQuery emits the slow-query log line: the offending query, its
// trace ID, the observed latency and (when the query ran instrumented)
// the analyzed plan, both as a structured object and as the indented
// text tree of PlanOp.String.
func (s *server) logSlowQuery(ctx context.Context, doc, query string, elapsed time.Duration, plan *mhxquery.PlanOp) {
	attrs := []slog.Attr{
		slog.String("trace", traceID(ctx)),
		slog.String("doc", doc),
		slog.String("query", query),
		slog.Duration("elapsed", elapsed),
		slog.Duration("threshold", s.slow),
	}
	if plan != nil {
		attrs = append(attrs, slog.Any("plan", plan), slog.String("plan_text", plan.String()))
	}
	s.logger.LogAttrs(ctx, slog.LevelWarn, "slow query", attrs...)
}
