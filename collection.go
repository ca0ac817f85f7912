package mhxquery

import (
	"context"
	"fmt"
	"io"
	"time"

	"mhxquery/internal/collection"
	"mhxquery/internal/obs"
	"mhxquery/internal/xquery"
)

// ErrDocNotFound is wrapped by errors that report a name with no
// registered document (test with errors.Is).
var ErrDocNotFound = collection.ErrNotFound

// ValidDocumentName reports whether name is acceptable to
// Collection.Put: [A-Za-z0-9._-], not starting with a dot or dash.
func ValidDocumentName(name string) bool { return collection.ValidName(name) }

// Collection is a named corpus of multihierarchical documents: a
// thread-safe registry with optional directory-backed persistence (the
// Save/ReadDocument binary format), an LRU cache of compiled queries,
// and parallel fan-out evaluation across member documents.
//
// Queries evaluated through a Collection may use doc("name") to reach a
// sibling document and collection()/collection("glob") to range over
// the whole corpus or a glob-selected subset of it.
type Collection struct {
	c *collection.Collection
}

// CollectionOptions configures a Collection. The zero value is valid:
// GOMAXPROCS fan-out workers, a 128-entry compiled-query cache, and
// (for persistent collections) the WAL-durable write path with default
// snapshot policy.
type CollectionOptions struct {
	// Workers bounds the QueryAll worker pool; 0 means GOMAXPROCS,
	// 1 evaluates sequentially.
	Workers int
	// CacheSize is the compiled-query LRU capacity in entries;
	// 0 means 128, negative disables caching.
	CacheSize int

	// FlushWindow bounds the extra latency the WAL group-commit writer
	// may add waiting for concurrent commits to share one fsync;
	// 0 fsyncs immediately (concurrent commits still batch).
	FlushWindow time.Duration
	// SnapshotEvery re-snapshots a document image after this many
	// logged updates (0 means 256, negative disables).
	SnapshotEvery int
	// SnapshotBytes re-snapshots after this many logged bytes per
	// document (0 means 4 MiB, negative disables).
	SnapshotBytes int64
}

// RecoveryStats reports what OpenCollection had to do to bring a
// durable collection back (zero for memory-only collections).
type RecoveryStats = collection.RecoveryStats

// NewCollection returns an empty in-memory collection.
func NewCollection(opts CollectionOptions) *Collection {
	return &Collection{c: collection.New(collection.Options{Workers: opts.Workers, CacheSize: opts.CacheSize})}
}

// OpenCollection returns a collection persisted under dir: the
// directory is created if needed, every document image (*.mhxg) in it
// is loaded (memory-mapped where the platform supports it), and the
// write-ahead log is replayed over the snapshots (crash recovery; see
// Recovery for what that took). Subsequent updates commit through the
// log with group-committed fsyncs and background snapshotting.
func OpenCollection(dir string, opts CollectionOptions) (*Collection, error) {
	c, err := collection.Open(dir, collection.Options{
		Workers:       opts.Workers,
		CacheSize:     opts.CacheSize,
		FlushWindow:   opts.FlushWindow,
		SnapshotEvery: opts.SnapshotEvery,
		SnapshotBytes: opts.SnapshotBytes,
	})
	if err != nil {
		return nil, err
	}
	return &Collection{c: c}, nil
}

// Recovery returns what OpenCollection replayed from the write-ahead
// log: snapshots loaded, records re-applied or skipped, tombstones,
// torn-tail bytes tolerated, and the wall time recovery took.
func (c *Collection) Recovery() RecoveryStats { return c.c.Recovery() }

// Put registers doc under name, replacing any previous document of
// that name and writing through to the backing directory if there is
// one. It reports whether an existing document was replaced. Names are
// restricted per ValidDocumentName.
func (c *Collection) Put(name string, doc *Document) (replaced bool, err error) {
	if doc == nil {
		return false, fmt.Errorf("mhxquery: nil document")
	}
	return c.c.Put(name, doc.g)
}

// Get returns the document registered under name.
func (c *Collection) Get(name string) (*Document, bool) {
	d, ok := c.c.Get(name)
	if !ok {
		return nil, false
	}
	return &Document{g: d}, true
}

// Delete removes the named document (and its persisted image, if any).
func (c *Collection) Delete(name string) error { return c.c.Delete(name) }

// Update applies an update expression (see Document.Update) to the
// named document and publishes the new version in the registry,
// writing through to the backing directory. Readers holding the old
// version — including in-flight streams — keep their snapshot; new
// Get/Query calls observe the new version. Updates serialize against
// each other; reads are never blocked.
func (c *Collection) Update(name, src string) (*Document, UpdateStats, error) {
	return c.UpdateContext(context.Background(), name, src)
}

// UpdateContext is Update under a cancellation context.
func (c *Collection) UpdateContext(ctx context.Context, name, src string) (*Document, UpdateStats, error) {
	nd, rep, err := c.c.UpdateContext(ctx, name, src)
	if err != nil {
		return nil, UpdateStats{}, err
	}
	return &Document{g: nd}, updateStatsFrom(rep), nil
}

// Names returns the member document names in sorted order.
func (c *Collection) Names() []string { return c.c.Names() }

// Len returns the number of member documents.
func (c *Collection) Len() int { return c.c.Len() }

// Query evaluates src against the named member document. Unlike
// Document.Query, doc() and collection() are live inside src, resolved
// against this collection.
func (c *Collection) Query(name, src string) (Sequence, error) {
	return c.QueryContext(context.Background(), name, src)
}

// QueryContext is Query under a cancellation context: when ctx expires
// the evaluation stops within a bounded number of items.
func (c *Collection) QueryContext(ctx context.Context, name, src string) (Sequence, error) {
	seq, d, err := c.c.QueryDocContext(ctx, name, src)
	if err != nil {
		return Sequence{}, err
	}
	return Sequence{s: seq, d: d}, nil
}

// Explain is Query with per-operator instrumentation: it returns the
// result together with the physical operator tree of the evaluation
// (index-vs-scan decisions and observed cardinalities). The underlying
// plan is cached keyed by query source + document hierarchy signature.
func (c *Collection) Explain(name, src string) (Sequence, *PlanOp, error) {
	seq, tree, d, err := c.c.ExplainDoc(name, src)
	if err != nil {
		return Sequence{}, nil, err
	}
	return Sequence{s: seq, d: d}, planOpFrom(tree), nil
}

// ExplainAnalyze is Explain upgraded to EXPLAIN ANALYZE: the query runs
// with wall-time instrumentation and each operator of the returned tree
// carries its observed time (PlanOp.Nanos, inclusive of children); the
// root's Nanos is the total query wall time.
func (c *Collection) ExplainAnalyze(ctx context.Context, name, src string) (Sequence, *PlanOp, error) {
	seq, tree, d, err := c.c.ExplainAnalyzeDoc(ctx, name, src)
	if err != nil {
		return Sequence{}, nil, err
	}
	return Sequence{s: seq, d: d}, planOpFrom(tree), nil
}

// Metrics is a read-only view of a collection's observability registry:
// query/update latency histograms, cache hit/miss counters, fan-out
// gauges and name-index build counters. See the README's Observability
// section for the metric catalog.
type Metrics struct {
	r *obs.Registry
}

// WritePrometheus encodes every metric in the Prometheus text
// exposition format (version 0.0.4).
func (m Metrics) WritePrometheus(w io.Writer) error { return m.r.WritePrometheus(w) }

// Snapshot flattens every scalar metric into a map keyed by
// "name{labels}"; histograms contribute "_count" and "_sum" entries.
func (m Metrics) Snapshot() map[string]float64 { return m.r.Snapshot() }

// Quantile estimates the q-quantile of the unlabeled histogram metric
// registered under name (e.g. "mhx_wal_fsync_seconds") by bucket
// interpolation. The bool is false when no such histogram exists or
// nothing has been observed.
func (m Metrics) Quantile(name string, q float64) (float64, bool) { return m.r.Quantile(name, q) }

// Metrics returns the collection's metrics.
func (c *Collection) Metrics() Metrics { return Metrics{r: c.c.Metrics()} }

// CollectionResult is the outcome of one document's evaluation in a
// QueryAll fan-out.
type CollectionResult struct {
	// Name is the document's registry name.
	Name string
	// Result is the query result; zero when Err is set.
	Result Sequence
	// Err is the per-document evaluation error, if any; one document
	// failing does not abort the others.
	Err error
}

// QueryAll evaluates src against every member document in parallel
// (bounded by CollectionOptions.Workers) and returns per-document
// results in name order. The compiled form of src is cached and reused
// across calls.
func (c *Collection) QueryAll(src string) ([]CollectionResult, error) {
	return c.QueryMatching("", src)
}

// QueryMatching is QueryAll restricted to documents whose names match
// the glob pattern (path.Match syntax).
func (c *Collection) QueryMatching(pattern, src string) ([]CollectionResult, error) {
	return c.QueryMatchingLimit(context.Background(), pattern, src, 0)
}

// QueryMatchingLimit is QueryMatching under a cancellation context and
// a global result budget: limit > 0 bounds the total number of items
// across the fan-out in document name order, and each document's
// evaluation stops as soon as the budget cannot use more of its items.
// Rows past the budget keep an empty result.
func (c *Collection) QueryMatchingLimit(ctx context.Context, pattern, src string, limit int) ([]CollectionResult, error) {
	results, err := c.c.QueryAllLimit(ctx, src, pattern, limit)
	if err != nil {
		return nil, err
	}
	out := make([]CollectionResult, len(results))
	for i, r := range results {
		out[i] = CollectionResult{Name: r.Name, Err: r.Err}
		if r.Err == nil {
			out[i].Result = Sequence{s: r.Seq, d: r.Doc}
		}
	}
	return out, nil
}

// StreamDoc starts a lazy evaluation of src against the named member
// document: items are produced on demand, so a limit (or an abandoned
// stream) stops document evaluation early. doc()/collection() inside
// src resolve against this collection's registry epoch at the start.
func (c *Collection) StreamDoc(ctx context.Context, name, src string) (*Stream, error) {
	s, d, err := c.c.StreamDoc(ctx, name, src)
	if err != nil {
		return nil, err
	}
	return &Stream{s: s, d: d}, nil
}

// CollectionRow is one event of a collection-wide stream: one result
// item of one document, or a per-document evaluation error (which does
// not abort the remaining documents).
type CollectionRow struct {
	// Doc is the document's registry name.
	Doc string
	// Item is the result item as a one-item Sequence; zero when Err is
	// set.
	Item Sequence
	// Err is the document's evaluation error, if any.
	Err error
}

// CollectionStream streams one query across member documents in name
// order with bounded memory: at most one document evaluates at a time,
// nothing is materialized beyond the item in flight, and abandoning the
// stream stops all remaining work.
type CollectionStream struct {
	rows *collection.Rows
}

// StreamMatching starts a collection-wide lazy evaluation over the
// documents whose names match pattern ("" = all), in name order.
func (c *Collection) StreamMatching(ctx context.Context, pattern, src string) (*CollectionStream, error) {
	rows, err := c.c.StreamAll(ctx, src, pattern)
	if err != nil {
		return nil, err
	}
	return &CollectionStream{rows: rows}, nil
}

// Next returns the next row, or ok=false when every document is
// exhausted.
func (s *CollectionStream) Next() (CollectionRow, bool) {
	ev, ok := s.rows.Next()
	if !ok {
		return CollectionRow{}, false
	}
	row := CollectionRow{Doc: ev.Name, Err: ev.Err}
	if ev.Err == nil {
		row.Item = Sequence{s: xquery.Seq{ev.Item}, d: ev.Doc}
	}
	return row, true
}

// CollectionCacheStats reports compiled-query cache effectiveness.
type CollectionCacheStats struct {
	Hits, Misses uint64
	Entries      int
	Capacity     int
}

// CacheStats returns a snapshot of the compiled-query cache counters.
func (c *Collection) CacheStats() CollectionCacheStats {
	s := c.c.CacheStats()
	return CollectionCacheStats{Hits: s.Hits, Misses: s.Misses, Entries: s.Entries, Capacity: s.Capacity}
}

// PlanCacheStats returns a snapshot of the physical-plan cache, whose
// entries are keyed by query source + document hierarchy signature.
func (c *Collection) PlanCacheStats() CollectionCacheStats {
	s := c.c.PlanCacheStats()
	return CollectionCacheStats{Hits: s.Hits, Misses: s.Misses, Entries: s.Entries, Capacity: s.Capacity}
}

// Close marks the collection closed: pending queries finish, further
// Put calls fail. Nothing is buffered (Put writes through), so Close
// never loses data.
func (c *Collection) Close() error { return c.c.Close() }
