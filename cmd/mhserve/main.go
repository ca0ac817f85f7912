// Command mhserve serves a collection of multihierarchical documents
// over HTTP: ingest document hierarchies, list the corpus, and evaluate
// extended-XQuery expressions against one document or fanned out across
// the whole collection.
//
// Usage:
//
//	mhserve [-addr :8080] [-dir corpus/] [-workers N] [-cache N] [-boethius] [-pprof addr]
//
// With -pprof a second listener exposes net/http/pprof (live CPU, heap
// and goroutine profiles of the query hot paths) on a separate address,
// so profiling is never reachable through the public serving port:
//
//	mhserve -boethius -pprof localhost:6060 &
//	curl -o cpu.out 'http://localhost:6060/debug/pprof/profile?seconds=10'
//	go tool pprof cpu.out
//
// With -dir the corpus directory is loaded at startup and kept durable
// with a per-collection write-ahead log: updates append to wal.log and
// are fsynced (group commit, bounded by -wal-flush) before the HTTP
// response acknowledges them, while whole document images are written
// in the background (every -snapshot-every updates or -snapshot-bytes
// logged bytes per document). A restart replays the log, so every
// acknowledged update survives a crash. Document images are
// memory-mapped on open where the platform supports it. The collection
// opens (and replays) in the background: /readyz answers 503
// {"status":"recovering"} and collection endpoints 503 until replay
// finishes. With -boethius the paper's Figure 1 fixture is preloaded
// under the name "boethius".
//
// Endpoints (all JSON unless noted):
//
//	GET    /healthz      liveness + corpus size
//	GET    /readyz       readiness; 503 once graceful shutdown starts draining
//	GET    /metrics      Prometheus text format: engine metrics (query
//	                     latency, cache hit/miss, fan-out, name index)
//	                     plus HTTP request series
//	GET    /docs         list documents with stats
//	PUT    /docs/{name}  ingest {"hierarchies":[{"name":..,"xml":..,"dtd":..}]}
//	GET    /docs/{name}  one document's stats
//	DELETE /docs/{name}  remove a document
//	PATCH  /docs/{name}  apply an update expression {"update":".."} — the
//	                     document is edited copy-on-write: a new version
//	                     is published (and persisted) while queries
//	                     already running keep their snapshot
//	POST   /query        {"query":.., "doc":"name" | "collection":"glob", "format":"xml"|"text"}
//	POST   /update       {"doc":"name", "update":".."} — body-addressed
//	                     form of PATCH /docs/{name}
//
// POST /query accepts two query parameters that expose the cursor
// engine's streaming execution:
//
//   - ?limit=N bounds the result to N items. Evaluation stops once the
//     limit is produced (O(answer), not O(document)): single-document
//     queries stream and stop, collection fan-outs cap every row and
//     truncate to the global budget in document name order.
//   - ?stream=1 switches the response to NDJSON (application/x-ndjson):
//     one JSON object {"doc":..,"item":..} per result item, written and
//     flushed as it is produced, with {"doc":..,"error":..} rows for
//     per-document failures. Collection-wide streams evaluate documents
//     one at a time in name order, so server memory stays bounded by a
//     single item regardless of result size.
//
// POST /query?explain=1 additionally returns the physical operator tree
// of the evaluation — the whole lowered query (FLWOR clauses,
// predicates, calls), index-vs-axis decisions and per-operator
// cardinalities — under "plan". ?analyze=1 upgrades that to EXPLAIN
// ANALYZE: the tree also carries observed per-operator wall time
// ("nanos", inclusive of children; the root is total query time). Both
// require a single target document ("doc") and are incompatible with
// ?stream=1.
//
// Every request carries a trace ID: the X-Trace-Id request header is
// honored when present, generated otherwise, echoed on the response and
// logged in the structured JSON request log (one line per request on
// stderr). With -slow-query DURATION, single-document queries run
// instrumented and any query at or over the threshold is logged with
// its trace ID and analyzed plan.
//
// Query evaluation is bounded: request bodies beyond -max-body bytes
// are rejected with 413, and -timeout caps wall-clock evaluation time
// per request (504 on expiry; mid-stream expiry ends the NDJSON stream
// with an error row).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"mhxquery"
	"mhxquery/internal/corpus"
)

// maxBodyBytes bounds ingest and query request bodies.
const maxBodyBytes = 32 << 20

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "corpus directory (loaded at startup, kept durable through a write-ahead log; empty = memory-only)")
	workers := flag.Int("workers", 0, "fan-out worker pool size (0 = GOMAXPROCS)")
	queryWorkers := flag.Int("query-workers", 0, "per-query morsel-execution workers, drawn from the shared pool (0 = GOMAXPROCS, 1 = serial)")
	cache := flag.Int("cache", 0, "compiled-query cache entries (0 = 128, negative = disabled)")
	boethius := flag.Bool("boethius", false, "preload the paper's Figure 1 fixture as \"boethius\"")
	pprofAddr := flag.String("pprof", "", "listen address for net/http/pprof (e.g. localhost:6060; empty = disabled)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request query evaluation timeout (0 = unlimited)")
	maxBody := flag.Int64("max-body", maxBodyBytes, "maximum request body size in bytes")
	slowQuery := flag.Duration("slow-query", 0, "log single-document queries slower than this with their analyzed plan (0 = disabled; enabling runs doc queries instrumented)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight requests")
	walFlush := flag.Duration("wal-flush", 0, "WAL group-commit window: extra latency a commit may wait to share an fsync with its neighbors (0 = flush immediately)")
	snapEvery := flag.Int("snapshot-every", 0, "write a background document snapshot after this many logged updates (0 = default 256, negative = never)")
	snapBytes := flag.Int64("snapshot-bytes", 0, "write a background document snapshot after this many logged bytes (0 = default 4MiB, negative = never)")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	mhxquery.SetQueryWorkers(*queryWorkers)

	opts := mhxquery.CollectionOptions{
		Workers:       *workers,
		CacheSize:     *cache,
		FlushWindow:   *walFlush,
		SnapshotEvery: *snapEvery,
		SnapshotBytes: *snapBytes,
	}
	if *pprofAddr != "" {
		// The profiling handlers get a private mux registered explicitly,
		// so nothing a dependency drops onto the DefaultServeMux can ever
		// leak onto the profiling port (or vice versa).
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("mhserve: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("mhserve: pprof listener: %v", err)
			}
		}()
	}
	s := &server{timeout: *timeout, maxBody: *maxBody, slow: *slowQuery, logger: logger}
	srv := &http.Server{
		Addr:    *addr,
		Handler: s.routes(),
		// Coarse bounds so slow or stalled clients cannot pin
		// goroutines and file descriptors indefinitely.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("mhserve: listening on %s", *addr)

	// Serve until SIGINT/SIGTERM, then drain: /readyz flips to 503 so
	// load balancers stop sending work, Shutdown lets in-flight requests
	// finish within the drain timeout, and only then does the process
	// exit (previously it died mid-request).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 2)
	// The collection opens (and replays its write-ahead log) in the
	// background so the listener binds immediately; /readyz flips from
	// 503 {"status":"recovering"} to 200 once replay finishes. An open
	// failure is fatal, surfaced through the same error channel as the
	// listener's.
	go func() {
		start := time.Now()
		coll, err := openCollection(*dir, opts, *boethius)
		if err != nil {
			errc <- fmt.Errorf("opening collection: %w", err)
			return
		}
		s.coll = coll
		s.ready.Store(true)
		rec := coll.Recovery()
		logger.Info("collection ready",
			"docs", coll.Len(),
			"elapsed", time.Since(start).String(),
			"snapshots_loaded", rec.Snapshots,
			"wal_replayed", rec.Replayed,
			"wal_skipped", rec.Skipped,
			"wal_tombstones", rec.Tombstones,
			"wal_torn_tail_bytes", rec.TornTailBytes,
			"checkpointed_docs", rec.CheckpointDocs)
	}()
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "mhserve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		s.draining.Store(true)
		logger.Info("shutdown: draining in-flight requests", "timeout", drain.String())
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			logger.Warn("shutdown: drain timeout expired, closing", "err", err.Error())
			srv.Close()
		}
		logger.Info("shutdown: done")
	}
}

func openCollection(dir string, opts mhxquery.CollectionOptions, boethius bool) (*mhxquery.Collection, error) {
	var (
		coll *mhxquery.Collection
		err  error
	)
	if dir != "" {
		coll, err = mhxquery.OpenCollection(dir, opts)
		if err != nil {
			return nil, err
		}
	} else {
		coll = mhxquery.NewCollection(opts)
	}
	if boethius {
		xml := corpus.BoethiusXML()
		var hs []mhxquery.Hierarchy
		for _, name := range corpus.BoethiusHierarchies() {
			hs = append(hs, mhxquery.Hierarchy{Name: name, XML: xml[name]})
		}
		d, err := mhxquery.Parse(hs...)
		if err != nil {
			return nil, err
		}
		if _, err := coll.Put("boethius", d); err != nil {
			return nil, err
		}
	}
	return coll, nil
}

// server is the HTTP layer over a document collection.
type server struct {
	coll *mhxquery.Collection
	// timeout caps query evaluation wall-clock time per request
	// (0 = unlimited); the cursor engine polls the deadline between
	// items, so even pathological queries stop promptly.
	timeout time.Duration
	// maxBody caps request bodies (MaxBytesReader).
	maxBody int64
	// slow is the slow-query log threshold (0 = disabled). When set,
	// single-document queries run instrumented (EXPLAIN ANALYZE) so a
	// slow one can be logged with its analyzed plan.
	slow time.Duration
	// logger emits the structured request and slow-query logs; routes()
	// defaults it when nil so a zero-value server still works.
	logger *slog.Logger
	// httpM is the transport-level metrics registry (obs.go).
	httpM *httpMetrics
	// draining flips once graceful shutdown begins; /readyz then serves
	// 503 while in-flight requests finish.
	draining atomic.Bool
	// ready flips once the collection has finished opening (write-ahead
	// log replay included). Until then coll is nil: /readyz reports
	// "recovering" and every collection endpoint answers 503. The
	// atomic store publishes the coll write that precedes it.
	ready atomic.Bool
}

func (s *server) routes() http.Handler {
	if s.logger == nil {
		s.logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if s.httpM == nil {
		s.httpM = newHTTPMetrics()
	}
	if s.coll != nil {
		// Constructed with the collection already open (tests, embedders):
		// no recovery phase to wait out.
		s.ready.Store(true)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /docs", s.handleListDocs)
	mux.HandleFunc("PUT /docs/{name}", s.handlePutDoc)
	mux.HandleFunc("GET /docs/{name}", s.handleGetDoc)
	mux.HandleFunc("DELETE /docs/{name}", s.handleDeleteDoc)
	mux.HandleFunc("PATCH /docs/{name}", s.handlePatchDoc)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /update", s.handleUpdate)
	return s.withObs(s.gate(mux))
}

// gate refuses collection endpoints with 503 while the collection is
// still opening (write-ahead log replay). /healthz and /readyz pass
// through: their handlers report the recovering state themselves.
func (s *server) gate(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() && r.URL.Path != "/healthz" && r.URL.Path != "/readyz" {
			writeError(w, http.StatusServiceUnavailable, "recovering: write-ahead log replay in progress")
			return
		}
		h.ServeHTTP(w, r)
	})
}

// ---- JSON wire types -------------------------------------------------------

type hierarchyJSON struct {
	Name string `json:"name"`
	XML  string `json:"xml"`
	DTD  string `json:"dtd,omitempty"`
}

type putDocRequest struct {
	Hierarchies []hierarchyJSON `json:"hierarchies"`
}

type docInfo struct {
	Name        string         `json:"name"`
	Hierarchies []string       `json:"hierarchies"`
	TextBytes   int            `json:"text_bytes"`
	Stats       mhxquery.Stats `json:"stats"`
}

type queryRequest struct {
	// Query is the extended-XQuery source.
	Query string `json:"query"`
	// Doc targets a single document by name. Empty = collection-wide.
	Doc string `json:"doc,omitempty"`
	// Collection restricts a collection-wide query to names matching
	// this glob. Ignored when Doc is set.
	Collection string `json:"collection,omitempty"`
	// Format selects result serialization: "xml" (default) or "text".
	Format string `json:"format,omitempty"`
}

type queryResult struct {
	Doc string `json:"doc"`
	// Result is always present on success (even when empty), so clients
	// can distinguish an empty result from an errored row.
	Result *string `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

type queryResponse struct {
	Results []queryResult `json:"results"`
	// Plan is the physical operator tree, present only on
	// /query?explain=1 requests.
	Plan *mhxquery.PlanOp `json:"plan,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("mhserve: encoding response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	limit := s.maxBody
	if limit <= 0 {
		limit = maxBodyBytes
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxErr.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return false
	}
	return true
}

// ---- handlers --------------------------------------------------------------

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		// Alive but still replaying the write-ahead log: liveness holds,
		// readiness (readyz) does not.
		writeJSON(w, http.StatusOK, map[string]any{"status": "recovering"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "docs": s.coll.Len()})
}

func (s *server) info(name string, d *mhxquery.Document) docInfo {
	return docInfo{
		Name:        name,
		Hierarchies: d.Hierarchies(),
		TextBytes:   len(d.Text()),
		Stats:       d.Stats(),
	}
}

func (s *server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	infos := []docInfo{} // never null in the JSON, even when empty
	for _, name := range s.coll.Names() {
		if d, ok := s.coll.Get(name); ok {
			infos = append(infos, s.info(name, d))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"docs": infos, "count": len(infos)})
}

func (s *server) handlePutDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !mhxquery.ValidDocumentName(name) {
		writeError(w, http.StatusBadRequest, "invalid document name %q", name)
		return
	}
	var req putDocRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Hierarchies) == 0 {
		writeError(w, http.StatusBadRequest, "no hierarchies given")
		return
	}
	hs := make([]mhxquery.Hierarchy, len(req.Hierarchies))
	for i, h := range req.Hierarchies {
		hs[i] = mhxquery.Hierarchy{Name: h.Name, XML: h.XML, DTD: h.DTD}
	}
	d, err := mhxquery.Parse(hs...)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The name and document were validated above, so a Put failure is a
	// server-side persistence problem, not a client error.
	replaced, err := s.coll.Put(name, d)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, s.info(name, d))
}

func (s *server) handleGetDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, ok := s.coll.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	writeJSON(w, http.StatusOK, s.info(name, d))
}

func (s *server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.coll.Get(name); !ok {
		writeError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	if err := s.coll.Delete(name); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// updateRequest is the body of PATCH /docs/{name} and POST /update.
type updateRequest struct {
	// Doc names the target document (POST /update only; the PATCH path
	// takes it from the URL).
	Doc string `json:"doc,omitempty"`
	// Update is the update-expression source.
	Update string `json:"update"`
}

// updateResponse reports an applied update: the new version number,
// the copy-on-write statistics, and the updated document's info.
type updateResponse struct {
	Doc     string               `json:"doc"`
	Version uint64               `json:"version"`
	Stats   mhxquery.UpdateStats `json:"stats"`
	Info    docInfo              `json:"info"`
}

// handlePatchDoc applies an update expression to the document named in
// the URL: PATCH /docs/{name} {"update": "..."}.
func (s *server) handlePatchDoc(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Doc != "" {
		writeError(w, http.StatusBadRequest, `"doc" is taken from the URL on PATCH /docs/{name}`)
		return
	}
	s.applyUpdate(w, r, r.PathValue("name"), req.Update)
}

// handleUpdate is the body-addressed form: POST /update
// {"doc": "...", "update": "..."}.
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Doc == "" {
		writeError(w, http.StatusBadRequest, `missing "doc"`)
		return
	}
	s.applyUpdate(w, r, req.Doc, req.Update)
}

func (s *server) applyUpdate(w http.ResponseWriter, r *http.Request, name, src string) {
	if src == "" {
		writeError(w, http.StatusBadRequest, "empty update expression")
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	d, stats, err := s.coll.UpdateContext(ctx, name, src)
	if err != nil {
		writeError(w, queryStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{
		Doc:     name,
		Version: d.Version(),
		Stats:   stats,
		Info:    s.info(name, d),
	})
}

// queryParams are the parsed ?limit= / ?stream= / ?explain= /
// ?analyze= query parameters of POST /query.
type queryParams struct {
	limit   int // 0 = unlimited
	stream  bool
	explain bool
	analyze bool
}

func parseQueryParams(r *http.Request) (queryParams, error) {
	var p queryParams
	q := r.URL.Query()
	switch q.Get("explain") {
	case "", "0", "false":
	case "1", "true":
		p.explain = true
	default:
		return p, fmt.Errorf("explain must be 0/1")
	}
	switch q.Get("analyze") {
	case "", "0", "false":
	case "1", "true":
		p.analyze = true
	default:
		return p, fmt.Errorf("analyze must be 0/1")
	}
	switch q.Get("stream") {
	case "", "0", "false":
	case "1", "true":
		p.stream = true
	default:
		return p, fmt.Errorf("stream must be 0/1")
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, fmt.Errorf("limit must be a non-negative integer")
		}
		p.limit = n
	}
	return p, nil
}

// queryContext derives the evaluation context: the request context
// (client disconnects cancel evaluation), bounded by the server's
// query timeout.
func (s *server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(r.Context(), s.timeout)
	}
	return context.WithCancel(r.Context())
}

// queryStatus maps an evaluation error to an HTTP status.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, mhxquery.ErrDocNotFound):
		return http.StatusNotFound
	case mhxquery.IsCanceled(err):
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "empty query")
		return
	}
	render := mhxquery.Sequence.String
	switch req.Format {
	case "", "xml":
	case "text":
		render = mhxquery.Sequence.Text
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want \"xml\" or \"text\")", req.Format)
		return
	}
	p, err := parseQueryParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if (p.explain || p.analyze) && req.Doc == "" {
		writeError(w, http.StatusBadRequest, `explain/analyze requires a single target document ("doc")`)
		return
	}
	if (p.explain || p.analyze) && p.stream {
		writeError(w, http.StatusBadRequest, "explain/analyze and stream are mutually exclusive")
		return
	}
	if req.Doc != "" && req.Collection != "" {
		writeError(w, http.StatusBadRequest, `"doc" and "collection" are mutually exclusive`)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()

	if p.stream {
		s.streamQuery(ctx, w, &req, p, render)
		return
	}
	if req.Doc != "" {
		s.queryOneDoc(ctx, w, &req, p, render)
		return
	}
	results, err := s.coll.QueryMatchingLimit(ctx, req.Collection, req.Query, p.limit)
	if err != nil {
		writeError(w, queryStatus(err), "%v", err)
		return
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		// The request deadline expired mid-fan-out: per-row errors would
		// render as a 200; report the timeout for the whole request.
		// (Plain cancellation means the client went away — nothing we
		// write will be read, so fall through.)
		writeError(w, http.StatusGatewayTimeout, "query timed out after %v", s.timeout)
		return
	}
	resp := queryResponse{Results: make([]queryResult, len(results))}
	for i, res := range results {
		qr := queryResult{Doc: res.Name}
		if res.Err != nil {
			qr.Error = res.Err.Error()
		} else {
			out := render(res.Result)
			qr.Result = &out
		}
		resp.Results[i] = qr
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryOneDoc answers a non-streaming single-document query. With a
// limit the evaluation runs through the document's cursor stream and
// stops at the limit; without one (and for EXPLAIN / EXPLAIN ANALYZE)
// it materializes.
func (s *server) queryOneDoc(ctx context.Context, w http.ResponseWriter, req *queryRequest, p queryParams, render func(mhxquery.Sequence) string) {
	if p.explain && !p.analyze {
		res, plan, err := s.coll.Explain(req.Doc, req.Query)
		if err != nil {
			writeError(w, queryStatus(err), "%v", err)
			return
		}
		out := render(res)
		writeJSON(w, http.StatusOK, queryResponse{
			Results: []queryResult{{Doc: req.Doc, Result: &out}},
			Plan:    plan,
		})
		return
	}
	// ?analyze=1 runs the query timed and returns the analyzed plan.
	// A -slow-query threshold routes plain doc queries through the same
	// instrumented evaluation (auto_explain-style: the plan of a slow
	// query can only be reported if the query ran instrumented), at the
	// documented cost of per-operator timing on those requests.
	if p.analyze || (s.slow > 0 && p.limit == 0) {
		start := time.Now()
		res, plan, err := s.coll.ExplainAnalyze(ctx, req.Doc, req.Query)
		if err != nil {
			writeError(w, queryStatus(err), "%v", err)
			return
		}
		if elapsed := time.Since(start); s.slow > 0 && elapsed >= s.slow {
			s.logSlowQuery(ctx, req.Doc, req.Query, elapsed, plan)
		}
		resp := queryResponse{Results: []queryResult{{Doc: req.Doc}}}
		out := render(res)
		resp.Results[0].Result = &out
		if p.analyze {
			resp.Plan = plan
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// Without a limit the strict evaluator is the faster full drain;
	// with one, the stream stops document evaluation at the limit.
	start := time.Now()
	var res mhxquery.Sequence
	var err error
	if p.limit == 0 {
		res, err = s.coll.QueryContext(ctx, req.Doc, req.Query)
	} else {
		var st *mhxquery.Stream
		if st, err = s.coll.StreamDoc(ctx, req.Doc, req.Query); err == nil {
			res, err = st.Take(p.limit)
		}
	}
	if err != nil {
		writeError(w, queryStatus(err), "%v", err)
		return
	}
	if elapsed := time.Since(start); s.slow > 0 && elapsed >= s.slow {
		// Limited queries run uninstrumented; log without a plan.
		s.logSlowQuery(ctx, req.Doc, req.Query, elapsed, nil)
	}
	out := render(res)
	writeJSON(w, http.StatusOK, queryResponse{
		Results: []queryResult{{Doc: req.Doc, Result: &out}},
	})
}

// streamRow is one NDJSON line of a streaming query response.
type streamRow struct {
	Doc   string `json:"doc"`
	Item  string `json:"item,omitempty"`
	Error string `json:"error,omitempty"`
}

// streamQuery writes the result as NDJSON, one row per item, flushed
// as produced. Evaluation stops as soon as the limit is reached (the
// cursor engine does no further document work) or the client goes
// away.
func (s *server) streamQuery(ctx context.Context, w http.ResponseWriter, req *queryRequest, p queryParams, render func(mhxquery.Sequence) string) {
	// Open the stream before committing a status: compile errors and
	// unknown documents surface synchronously here and deserve the same
	// 400/404 the non-stream path gives. Only evaluation errors found
	// mid-stream become NDJSON error rows.
	var (
		st  *mhxquery.Stream
		cs  *mhxquery.CollectionStream
		err error
	)
	if req.Doc != "" {
		st, err = s.coll.StreamDoc(ctx, req.Doc, req.Query)
	} else {
		cs, err = s.coll.StreamMatching(ctx, req.Collection, req.Query)
	}
	if err != nil {
		writeError(w, queryStatus(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(row streamRow) {
		if err := enc.Encode(row); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	n := 0
	if st != nil {
		for p.limit == 0 || n < p.limit {
			item, ok, err := st.Next()
			if err != nil {
				emit(streamRow{Doc: req.Doc, Error: err.Error()})
				return
			}
			if !ok {
				return
			}
			n++
			emit(streamRow{Doc: req.Doc, Item: render(item)})
		}
		return
	}
	for p.limit == 0 || n < p.limit {
		row, ok := cs.Next()
		if !ok {
			return
		}
		if row.Err != nil {
			emit(streamRow{Doc: row.Doc, Error: row.Err.Error()})
			continue
		}
		n++
		emit(streamRow{Doc: row.Doc, Item: render(row.Item)})
	}
}
