// Package collection implements a named corpus of multihierarchical
// documents: a thread-safe in-memory registry with directory-backed
// persistence in the store MHXG binary format, an LRU cache of compiled
// queries, and parallel fan-out evaluation of one query across all (or
// a glob-selected subset of) member documents.
//
// A Collection is the production backing for the doc() and collection()
// functions of the query language: it implements xquery.Resolver, so
// any query evaluated through Collection.Query or Collection.QueryAll
// can reach every member document by name.
package collection

import (
	"context"
	"errors"
	"fmt"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/sched"
	"mhxquery/internal/store"
	"mhxquery/internal/wal"
	"mhxquery/internal/xquery"
)

// imageExt is the filename extension of persisted document images.
const imageExt = ".mhxg"

// nameRE restricts document names to a filesystem- and URL-safe
// alphabet so a name can double as the image filename and as a path
// segment of the HTTP API.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_][A-Za-z0-9._-]*$`)

// ValidName reports whether name is acceptable to Put.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// ErrNotFound distinguishes "no such document" from evaluation and I/O
// failures (errors.Is).
var ErrNotFound = errors.New("document not found")

// Options configures a Collection. The zero value is valid.
type Options struct {
	// Workers bounds the fan-out worker pool of QueryAll.
	// 0 means GOMAXPROCS; 1 evaluates sequentially.
	Workers int
	// CacheSize is the capacity of the compiled-query LRU cache in
	// entries. 0 means a default of 128; negative disables caching.
	CacheSize int

	// FlushWindow is the WAL group-commit window: how long the log
	// writer waits after the first commit of a batch for more to pile
	// in. 0 fsyncs immediately (concurrent commits still batch).
	FlushWindow time.Duration
	// SnapshotEvery re-snapshots a document after this many logged
	// updates (0 means 256; negative disables count-triggered
	// snapshots).
	SnapshotEvery int
	// SnapshotBytes re-snapshots a document after this many logged
	// update-source bytes (0 means 4 MiB; negative disables).
	SnapshotBytes int64
	// FS overrides the filesystem the durable write path runs on. nil
	// means the real OS; tests inject wal.CrashFS for fault injection
	// and power-loss simulation. Snapshot images are memory-mapped only
	// on the real OS (wal.OSFS): an injected filesystem's bytes are not
	// the disk's, so its images are read into memory.
	FS wal.FS
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheSize == 0 {
		o.CacheSize = 128
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 256
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = 4 << 20
	}
	if o.SnapshotEvery < 0 {
		o.SnapshotEvery = int(^uint(0) >> 1)
	}
	if o.SnapshotBytes < 0 {
		o.SnapshotBytes = int64(^uint64(0) >> 1)
	}
	if o.FS == nil {
		o.FS = wal.OS
	}
	return o
}

// Collection is a registry of named documents. All methods are safe for
// concurrent use; member documents are immutable, so readers never
// block each other.
type Collection struct {
	dir     string // "" = memory-only
	workers int
	cache   *lruCache
	// plans caches physical plans keyed by query source + document
	// hierarchy signature (core.Document.Signature): two documents with
	// the same hierarchy layout share one plan, while an analyze-string
	// overlay layout — one more (temporary) hierarchy — keys
	// differently, so a base-document plan is never blindly reused.
	plans *lruCache

	// metrics is the collection's observability registry (metrics.go);
	// always non-nil, so hot paths update it unconditionally.
	metrics *collMetrics

	mu     sync.RWMutex
	docs   map[string]*core.Document
	closed bool

	// updateMu serializes writers (Put, Delete, Update): an update reads
	// the current version, applies the copy-on-write batch outside the
	// registry lock, then publishes the new version under mu, so no Put
	// or Delete can land between its read and its publish. Readers are
	// never blocked — they keep their snapshot.
	updateMu sync.Mutex

	// Durable write path (nil/zero for memory-only collections; see
	// durable.go).
	fs        wal.FS
	wal       *wal.Log
	snapEvery int
	snapBytes int64
	recovery  RecoveryStats
	tmpSeq    atomic.Uint64 // temp-file name uniquifier

	// Guarded by mu: per-document snapshot lag and the highest log
	// sequence published in memory.
	logState    map[string]*docState
	snapPending map[string]bool
	pubSeq      uint64

	snapKick chan struct{}
	snapStop chan struct{}
	snapDone chan struct{}
}

// New returns an empty memory-only collection.
func New(opts Options) *Collection {
	opts = opts.withDefaults()
	var cache, plans *lruCache
	if opts.CacheSize > 0 {
		cache = newLRU(opts.CacheSize)
		// Plans are per (query, layout); give them headroom over the
		// query cache so one extra corpus layout does not thrash it.
		plans = newLRU(4 * opts.CacheSize)
	}
	c := &Collection{
		workers: opts.Workers,
		cache:   cache,
		plans:   plans,
		docs:    map[string]*core.Document{},
		fs:      wal.OS,
	}
	// Fan-out runs on the process-wide scheduler (shared with intra-query
	// morsel execution); make sure it can grant this collection's
	// parallelism.
	sched.Default().Ensure(c.workers)
	c.metrics = newCollMetrics(c)
	return c
}

// Open returns a collection persisted under dir, creating the directory
// if needed and loading every *.mhxg image found there. Updates are
// made durable through a write-ahead log (durable.go): Open replays any
// log records not yet covered by the document snapshots — crash
// recovery — and Recovery reports what that took. Subsequent Put calls
// write their image to dir.
func Open(dir string, opts Options) (*Collection, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("collection: %w", err)
	}
	c := New(opts)
	c.dir = dir
	c.fs = fs
	c.snapEvery = opts.SnapshotEvery
	c.snapBytes = opts.SnapshotBytes
	c.logState = map[string]*docState{}
	c.snapPending = map[string]bool{}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("collection: %w", err)
	}
	for _, fname := range names {
		if strings.HasSuffix(fname, ".tmp") {
			// Leftover from a crash mid-write: the rename never happened,
			// so the temp file is unpublished garbage.
			fs.Remove(filepath.Join(dir, fname))
			continue
		}
		if !strings.HasSuffix(fname, imageExt) {
			continue
		}
		name := strings.TrimSuffix(fname, imageExt)
		if !nameRE.MatchString(name) {
			continue
		}
		d, snapSeq, err := c.openSnapshot(filepath.Join(dir, fname))
		if err != nil {
			// Snapshot corruption is not recoverable from here (the log
			// only holds deltas against it): fail loudly, never serve a
			// silently damaged corpus.
			return nil, fmt.Errorf("collection: loading %q: %w", fname, err)
		}
		c.docs[name] = d
		c.logState[name] = &docState{lastSeq: snapSeq, snapSeq: snapSeq}
	}
	if err := c.recover(opts); err != nil {
		return nil, err
	}
	return c, nil
}

// openSnapshot loads one image in O(validation): memory-mapped off the
// real OS filesystem where the platform has mmap (the mapping then
// backs the document for the life of the process, sharing the page
// cache across processes), read into memory otherwise — either way
// node storage materializes lazily on first structural access.
func (c *Collection) openSnapshot(path string) (*core.Document, uint64, error) {
	if _, osFS := c.fs.(wal.OSFS); osFS {
		return store.OpenSnapshotFile(path)
	}
	f, err := c.fs.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return store.DecodeSnapshot(f)
}

// Dir returns the backing directory ("" for a memory-only collection).
func (c *Collection) Dir() string { return c.dir }

// Workers returns the fan-out worker pool bound.
func (c *Collection) Workers() int { return c.workers }

// Len returns the number of member documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// Put registers d under name and reports whether it replaced a
// previous document of that name (decided under the same lock that
// publishes, so HTTP created-vs-replaced answers cannot race). With a
// backing directory the image is made durable before it is published
// (putDurable). Put is serialized with Update and Delete, so an update
// in flight never overwrites the document Put registers.
func (c *Collection) Put(name string, d *core.Document) (replaced bool, err error) {
	if !nameRE.MatchString(name) {
		return false, fmt.Errorf("collection: invalid document name %q", name)
	}
	if d == nil {
		return false, fmt.Errorf("collection: nil document")
	}
	c.updateMu.Lock()
	defer c.updateMu.Unlock()
	if c.wal != nil {
		return c.putDurable(name, d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, fmt.Errorf("collection: closed")
	}
	_, replaced = c.docs[name]
	c.docs[name] = d
	return replaced, nil
}

// encodeTemp writes d's image (recording snapSeq as its log coverage)
// to a temp file in the backing directory and returns its path; the
// caller publishes it with rename.
func (c *Collection) encodeTemp(name string, d *core.Document, snapSeq uint64) (string, error) {
	path := filepath.Join(c.dir, fmt.Sprintf("%s.%d.tmp", name, c.tmpSeq.Add(1)))
	tmp, err := c.fs.Create(path)
	if err != nil {
		return "", fmt.Errorf("collection: %w", err)
	}
	cleanup := func() { tmp.Close(); c.fs.Remove(path) }
	// Make the temp entry itself durable: a crash from here on leaves a
	// visible *.tmp for startup cleanup, not an orphaned invisible
	// inode.
	if err := c.fs.SyncDir(c.dir); err != nil {
		cleanup()
		return "", fmt.Errorf("collection: %w", err)
	}
	if err := store.EncodeSnapshot(tmp, d, snapSeq); err != nil {
		cleanup()
		return "", fmt.Errorf("collection: encoding %q: %w", name, err)
	}
	// Flush file data before the rename so a crash cannot publish a
	// name pointing at a torn image.
	if err := tmp.Sync(); err != nil {
		cleanup()
		return "", fmt.Errorf("collection: %w", err)
	}
	if err := tmp.Close(); err != nil {
		c.fs.Remove(path)
		return "", fmt.Errorf("collection: %w", err)
	}
	return path, nil
}

// Get returns the document registered under name.
func (c *Collection) Get(name string) (*core.Document, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[name]
	return d, ok
}

// Delete removes the named document from the registry and, for a
// persistent collection, from the backing directory (deleteDurable).
// Deleting an unknown name is a no-op. Delete is serialized with Update,
// so an update in flight never brings a deleted document back.
func (c *Collection) Delete(name string) error {
	c.updateMu.Lock()
	defer c.updateMu.Unlock()
	if c.wal != nil {
		return c.deleteDurable(name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.docs, name)
	return nil
}

// Names returns the member document names in sorted order.
func (c *Collection) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.docs))
	for name := range c.docs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close marks the collection closed and, in WAL mode, flushes the
// background snapshotter and the log (draining any pending group
// commit). Pending readers finish normally; subsequent writes fail.
func (c *Collection) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	if c.wal != nil {
		return c.closeDurable()
	}
	return nil
}

// Update applies an update expression to the named document and
// publishes the resulting new version in the registry (made durable
// through the write-ahead log first for a persistent collection). The
// pre-update version stays valid for readers that already hold it:
// they observe a consistent pre- or post-update document, never a mix.
// Updates are serialized with each other and with Put and Delete;
// doc()/collection() inside target expressions resolve against the
// registry epoch at the start of the update.
func (c *Collection) Update(name, src string) (*core.Document, *xquery.UpdateReport, error) {
	return c.UpdateContext(context.Background(), name, src)
}

// UpdateContext is Update under a cancellation context.
func (c *Collection) UpdateContext(ctx context.Context, name, src string) (*core.Document, *xquery.UpdateReport, error) {
	u, err := xquery.CompileUpdate(src)
	if err != nil {
		return nil, nil, err
	}
	return c.update(ctx, name, src, u)
}

// ---- xquery.Resolver ------------------------------------------------------

// ResolveDoc implements xquery.Resolver: doc("name") inside a query
// resolves against the live registry.
func (c *Collection) ResolveDoc(name string) (*core.Document, error) {
	d, ok := c.Get(name)
	if !ok {
		return nil, fmt.Errorf("no document %q in collection: %w", name, ErrNotFound)
	}
	return d, nil
}

// ResolveCollection implements xquery.Resolver: collection("glob")
// inside a query. The empty pattern selects every document; otherwise
// names are matched with path.Match. Documents are returned in name
// order.
func (c *Collection) ResolveCollection(pattern string) ([]*core.Document, error) {
	_, docs, err := c.view().match(pattern)
	return docs, err
}

// view is an immutable snapshot of the registry: one registry epoch
// that a whole fan-out can evaluate against. It implements
// xquery.Resolver, so doc()/collection() inside a snapshot evaluation
// see the same epoch as the fan-out itself.
type view struct {
	names []string // sorted
	docs  map[string]*core.Document
}

// view captures the registry under one read lock.
func (c *Collection) view() *view {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v := &view{
		names: make([]string, 0, len(c.docs)),
		docs:  make(map[string]*core.Document, len(c.docs)),
	}
	for name, d := range c.docs {
		v.names = append(v.names, name)
		v.docs[name] = d
	}
	sort.Strings(v.names)
	return v
}

// match returns the (names, documents) of the view matching pattern,
// in name order.
func (v *view) match(pattern string) ([]string, []*core.Document, error) {
	if pattern != "" {
		// Validate the pattern once, against a fixed probe, so a bad
		// glob fails loudly even on an empty collection.
		if _, err := path.Match(pattern, "x"); err != nil {
			return nil, nil, fmt.Errorf("bad pattern %q: %w", pattern, err)
		}
	}
	matched := make([]string, 0, len(v.names))
	docs := make([]*core.Document, 0, len(v.names))
	for _, name := range v.names {
		if pattern != "" {
			if ok, _ := path.Match(pattern, name); !ok {
				continue
			}
		}
		matched = append(matched, name)
		docs = append(docs, v.docs[name])
	}
	return matched, docs, nil
}

// ResolveDoc implements xquery.Resolver over the snapshot.
func (v *view) ResolveDoc(name string) (*core.Document, error) {
	d, ok := v.docs[name]
	if !ok {
		return nil, fmt.Errorf("no document %q in collection: %w", name, ErrNotFound)
	}
	return d, nil
}

// ResolveCollection implements xquery.Resolver over the snapshot.
func (v *view) ResolveCollection(pattern string) ([]*core.Document, error) {
	_, docs, err := v.match(pattern)
	return docs, err
}

// ---- compiled-query cache --------------------------------------------------

// Compile returns the compiled form of src, reusing the LRU cache when
// enabled. Compiled queries are immutable, so a cached query may be
// evaluated by any number of goroutines at once.
func (c *Collection) Compile(src string) (*xquery.Query, error) {
	if c.cache == nil {
		return xquery.Compile(src)
	}
	if q, ok := c.cache.get(src); ok {
		return q.(*xquery.Query), nil
	}
	q, err := xquery.Compile(src)
	if err != nil {
		return nil, err
	}
	c.cache.add(src, q)
	return q, nil
}

// planFor returns the physical plan of q for d's hierarchy layout,
// reusing the plan cache. A cached plan belonging to an evicted,
// since-recompiled Query is detected by identity and replanned, so a
// stale plan never evaluates a different AST than the caller compiled.
func (c *Collection) planFor(src string, q *xquery.Query, d *core.Document) *xquery.Plan {
	if c.plans == nil {
		return q.PlanFor(d)
	}
	key := src + "\x00" + d.Signature()
	if v, ok := c.plans.get(key); ok {
		if pl := v.(*xquery.Plan); pl.Query() == q {
			return pl
		}
	}
	pl := q.PlanFor(d)
	c.plans.add(key, pl)
	return pl
}

// CacheStats reports compiled-query cache effectiveness.
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
	Capacity     int
}

// CacheStats returns a snapshot of the compiled-query cache counters.
func (c *Collection) CacheStats() CacheStats {
	if c.cache == nil {
		return CacheStats{}
	}
	hits, misses, entries := c.cache.stats()
	return CacheStats{Hits: hits, Misses: misses, Entries: entries, Capacity: c.cache.capacity}
}

// PlanCacheStats returns a snapshot of the physical-plan cache counters
// (entries are keyed by query source + document hierarchy signature).
func (c *Collection) PlanCacheStats() CacheStats {
	if c.plans == nil {
		return CacheStats{}
	}
	hits, misses, entries := c.plans.stats()
	return CacheStats{Hits: hits, Misses: misses, Entries: entries, Capacity: c.plans.capacity}
}

// ---- query entry points ------------------------------------------------------

// Query evaluates src against the named document, with this collection
// resolving doc()/collection() references inside the query.
func (c *Collection) Query(name, src string) (xquery.Seq, error) {
	seq, _, err := c.QueryDoc(name, src)
	return seq, err
}

// QueryDoc is Query returning also the document the evaluation ran
// against, so callers can pair result nodes with their owning document
// even if the registry entry is concurrently replaced. Like QueryAll,
// the evaluation — including doc()/collection() inside the query —
// sees one registry epoch, captured at the start.
func (c *Collection) QueryDoc(name, src string) (xquery.Seq, *core.Document, error) {
	return c.QueryDocContext(context.Background(), name, src)
}

// QueryDocContext is QueryDoc under a cancellation context: the strict
// (fully materializing) evaluation route, preferred over draining a
// stream when no limit applies.
func (c *Collection) QueryDocContext(ctx context.Context, name, src string) (xquery.Seq, *core.Document, error) {
	q, err := c.Compile(src)
	if err != nil {
		return nil, nil, err
	}
	v := c.view()
	d, err := v.ResolveDoc(name)
	if err != nil {
		return nil, nil, fmt.Errorf("collection: %w", err)
	}
	start := time.Now()
	seq, err := c.planFor(src, q, d).EvalContext(ctx, d, nil, v)
	if err != nil {
		return nil, nil, err
	}
	c.metrics.observeQuery(start)
	return seq, d, nil
}

// StreamDoc starts a lazy, cursor-driven evaluation of src against the
// named document: items are produced on demand, so a caller applying a
// limit (or a disconnecting HTTP client) stops document evaluation
// after the items it consumed. ctx cancels the evaluation mid-stream.
// Like QueryDoc, the evaluation sees one registry epoch.
func (c *Collection) StreamDoc(ctx context.Context, name, src string) (*xquery.Stream, *core.Document, error) {
	q, err := c.Compile(src)
	if err != nil {
		return nil, nil, err
	}
	v := c.view()
	d, err := v.ResolveDoc(name)
	if err != nil {
		return nil, nil, fmt.Errorf("collection: %w", err)
	}
	return c.planFor(src, q, d).Stream(ctx, d, nil, v), d, nil
}

// ExplainDoc is QueryDoc with per-operator instrumentation: it returns
// the result, the physical operator tree (index-vs-scan decisions and
// observed cardinalities) and the document evaluated against.
func (c *Collection) ExplainDoc(name, src string) (xquery.Seq, *xquery.ExplainOp, *core.Document, error) {
	q, err := c.Compile(src)
	if err != nil {
		return nil, nil, nil, err
	}
	v := c.view()
	d, err := v.ResolveDoc(name)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("collection: %w", err)
	}
	c.planFor(src, q, d) // warm the plan cache like the non-explain path
	seq, plan, err := q.Explain(d, nil, v)
	if err != nil {
		return nil, nil, nil, err
	}
	return seq, plan, d, nil
}

// ExplainAnalyzeDoc is ExplainDoc upgraded to EXPLAIN ANALYZE: the
// query runs with timing instrumentation and the returned operator tree
// carries observed per-operator wall time (inclusive of children) in
// addition to cardinalities; the root's Nanos is the total query wall
// time. The evaluation counts toward mhx_query_seconds like any other.
func (c *Collection) ExplainAnalyzeDoc(ctx context.Context, name, src string) (xquery.Seq, *xquery.ExplainOp, *core.Document, error) {
	q, err := c.Compile(src)
	if err != nil {
		return nil, nil, nil, err
	}
	v := c.view()
	d, err := v.ResolveDoc(name)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("collection: %w", err)
	}
	pl := c.planFor(src, q, d)
	start := time.Now()
	seq, plan, err := pl.ExplainAnalyze(ctx, d, nil, v)
	if err != nil {
		return nil, nil, nil, err
	}
	c.metrics.observeQuery(start)
	return seq, plan, d, nil
}
