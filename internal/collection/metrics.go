package collection

import (
	"sync/atomic"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/obs"
	"mhxquery/internal/sched"
	"mhxquery/internal/xquery"
)

// collMetrics holds the collection's metric handles, looked up once at
// construction so the hot paths (per-document evaluation, cache gets,
// fan-out scheduling) update atomics without touching the registry map.
//
// The catalog:
//
//	mhx_query_seconds                 histogram  per-document query evaluation latency
//	mhx_update_commit_seconds         histogram  update apply+persist+publish latency
//	mhx_cache_requests_total          counter    {cache="compile"|"plan", result="hit"|"miss"}
//	mhx_fanout_queue_depth            gauge      fan-out jobs accepted but not yet started
//	mhx_fanout_busy_workers           gauge      fan-out workers currently evaluating
//	mhx_documents                     gauge      member documents in the registry
//	mhx_nameindex_builds_total        counter    from-scratch name-index builds (process-wide)
//	mhx_nameindex_build_seconds_total counter    wall time spent in those builds (process-wide)
//	mhx_index_maintenance_total       counter    {outcome="patched"|"lazy_rebuild"} update index outcomes (process-wide)
//	mhx_overlay_hierarchies_total     counter    analyze-string overlay hierarchies created (process-wide)
//	mhx_overlay_layouts_total         counter    overlay leaf layers built (process-wide)
//	mhx_wal_fsync_seconds             histogram  WAL group-commit write+fsync latency
//	mhx_wal_commit_batch_records      histogram  commits covered by one fsync batch
//	mhx_wal_appends_total             counter    records acknowledged by the log
//	mhx_wal_bytes_total               counter    framed bytes written to the log
//	mhx_wal_syncs_total               counter    fsync batches
//	mhx_wal_resets_total              counter    log compactions (snapshot-covered truncations)
//	mhx_snapshots_total               counter    background document snapshots written
//	mhx_snapshot_errors_total         counter    failed background snapshots
//	mhx_recovery_replayed_total       counter    log records re-applied by the last Open
//	mhx_recovery_torn_bytes           gauge      torn tail truncated by the last Open
//	mhx_query_morsels_total           counter    morsels dispatched by parallel intra-query execution (process-wide)
//	mhx_query_parallel_queries_total  counter    evaluations that engaged intra-query parallelism (process-wide)
//	mhx_query_morsel_seconds          histogram  morsel execution latency (process-wide)
//	mhx_pool_busy_workers             gauge      shared-scheduler workers currently running a job
//	mhx_pool_queued_jobs              gauge      {class="fanout"|"morsel"} tickets waiting in the shared scheduler
//
// The name-index and overlay families sample process-wide core
// counters (builds happen lazily inside core where no registry is in
// scope), so with several Collections in one process each reports the
// same process totals; the morsel and pool families likewise sample
// the process-wide query engine and scheduler.
type collMetrics struct {
	reg           *obs.Registry
	querySeconds  *obs.Histogram
	updateSeconds *obs.Histogram
	queueDepth    *obs.Gauge
	busyWorkers   *obs.Gauge

	fsyncSeconds *obs.Histogram
	commitBatch  *obs.Histogram
	snapshots    atomic.Uint64
	snapshotErrs atomic.Uint64
	logResets    atomic.Uint64
}

func newCollMetrics(c *Collection) *collMetrics {
	reg := obs.NewRegistry()
	m := &collMetrics{
		reg: reg,
		querySeconds: reg.Histogram("mhx_query_seconds",
			"Per-document query evaluation latency in seconds.", obs.LatencyBuckets),
		updateSeconds: reg.Histogram("mhx_update_commit_seconds",
			"Update commit latency in seconds: apply, persist, publish.", obs.LatencyBuckets),
		queueDepth: reg.Gauge("mhx_fanout_queue_depth",
			"Fan-out jobs accepted but not yet picked up by a worker."),
		busyWorkers: reg.Gauge("mhx_fanout_busy_workers",
			"Fan-out workers currently evaluating a document."),
	}
	const cacheHelp = "Cache lookups by cache (compile = source->Query, plan = source+signature->Plan) and result."
	if c.cache != nil {
		c.cache.hitC = reg.Counter("mhx_cache_requests_total", cacheHelp,
			obs.L("cache", "compile"), obs.L("result", "hit"))
		c.cache.missC = reg.Counter("mhx_cache_requests_total", cacheHelp,
			obs.L("cache", "compile"), obs.L("result", "miss"))
	}
	if c.plans != nil {
		c.plans.hitC = reg.Counter("mhx_cache_requests_total", cacheHelp,
			obs.L("cache", "plan"), obs.L("result", "hit"))
		c.plans.missC = reg.Counter("mhx_cache_requests_total", cacheHelp,
			obs.L("cache", "plan"), obs.L("result", "miss"))
	}
	reg.GaugeFunc("mhx_documents",
		"Member documents in the registry.",
		func() float64 { return float64(c.Len()) })
	reg.CounterFunc("mhx_nameindex_builds_total",
		"From-scratch structural name-index builds (process-wide).",
		func() float64 { return float64(core.GlobalIndexStats().Builds) })
	reg.CounterFunc("mhx_nameindex_build_seconds_total",
		"Wall time spent building structural name indexes, in seconds (process-wide).",
		func() float64 { return float64(core.GlobalIndexStats().BuildNanos) / 1e9 })
	reg.CounterFunc("mhx_overlay_hierarchies_total",
		"Overlay hierarchies created by analyze-string (process-wide).",
		func() float64 { return float64(core.GlobalOverlayStats().Hierarchies) })
	reg.CounterFunc("mhx_overlay_layouts_total",
		"Overlay leaf layers built, for overlays whose leaves a query reached (process-wide).",
		func() float64 { return float64(core.GlobalOverlayStats().Layouts) })
	m.fsyncSeconds = reg.Histogram("mhx_wal_fsync_seconds",
		"WAL group-commit write+fsync latency in seconds.", obs.LatencyBuckets)
	m.commitBatch = reg.Histogram("mhx_wal_commit_batch_records",
		"Commits covered by one WAL fsync batch.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	reg.CounterFunc("mhx_wal_appends_total",
		"Update/tombstone records acknowledged by the write-ahead log.",
		func() float64 { return float64(c.WALStats().Appends) })
	reg.CounterFunc("mhx_wal_bytes_total",
		"Framed bytes written to the write-ahead log.",
		func() float64 { return float64(c.WALStats().Bytes) })
	reg.CounterFunc("mhx_wal_syncs_total",
		"Write-ahead log fsync batches.",
		func() float64 { return float64(c.WALStats().Syncs) })
	reg.CounterFunc("mhx_wal_resets_total",
		"Write-ahead log compactions: truncations after snapshots covered every record.",
		func() float64 { return float64(m.logResets.Load()) })
	reg.CounterFunc("mhx_snapshots_total",
		"Background document snapshots written.",
		func() float64 { return float64(m.snapshots.Load()) })
	reg.CounterFunc("mhx_snapshot_errors_total",
		"Background document snapshots that failed.",
		func() float64 { return float64(m.snapshotErrs.Load()) })
	reg.CounterFunc("mhx_recovery_replayed_total",
		"Log records re-applied by the last recovery (Open).",
		func() float64 { return float64(c.recovery.Replayed) })
	reg.GaugeFunc("mhx_recovery_torn_bytes",
		"Torn log tail truncated (and tolerated) by the last recovery.",
		func() float64 { return float64(c.recovery.TornTailBytes) })
	reg.CounterFunc("mhx_query_morsels_total",
		"Morsels dispatched by parallel intra-query execution (process-wide).",
		func() float64 { m, _ := xquery.ParallelStats(); return float64(m) })
	reg.CounterFunc("mhx_query_parallel_queries_total",
		"Query evaluations that engaged intra-query parallelism at least once (process-wide).",
		func() float64 { _, q := xquery.ParallelStats(); return float64(q) })
	reg.RegisterHistogram("mhx_query_morsel_seconds",
		"Morsel execution latency in seconds (process-wide).", xquery.MorselSeconds())
	reg.GaugeFunc("mhx_pool_busy_workers",
		"Shared-scheduler workers currently running a job (fan-out or morsel).",
		func() float64 { return float64(sched.Default().Busy()) })
	const queuedHelp = "Job tickets waiting in the shared scheduler, by priority class."
	reg.GaugeFunc("mhx_pool_queued_jobs", queuedHelp,
		func() float64 { return float64(sched.Default().Queued(sched.Fanout)) },
		obs.L("class", "fanout"))
	reg.GaugeFunc("mhx_pool_queued_jobs", queuedHelp,
		func() float64 { return float64(sched.Default().Queued(sched.Morsel)) },
		obs.L("class", "morsel"))
	const maintHelp = "Name-index outcomes of document updates: patched incrementally or discarded for a lazy rebuild (process-wide)."
	reg.CounterFunc("mhx_index_maintenance_total", maintHelp,
		func() float64 { return float64(core.GlobalIndexStats().Patched) },
		obs.L("outcome", "patched"))
	reg.CounterFunc("mhx_index_maintenance_total", maintHelp,
		func() float64 { return float64(core.GlobalIndexStats().LazyReset) },
		obs.L("outcome", "lazy_rebuild"))
	return m
}

// observeQuery records one per-document evaluation latency.
func (m *collMetrics) observeQuery(start time.Time) {
	m.querySeconds.Observe(time.Since(start).Seconds())
}

// observeUpdate records one update commit latency.
func (m *collMetrics) observeUpdate(start time.Time) {
	m.updateSeconds.Observe(time.Since(start).Seconds())
}

// ObserveCommit implements wal.Observer: one fsync batch of the log
// writer.
func (m *collMetrics) ObserveCommit(records, bytes int, latency time.Duration) {
	m.fsyncSeconds.Observe(latency.Seconds())
	m.commitBatch.Observe(float64(records))
}

// Metrics returns the collection's metrics registry, for scraping
// (obs.Registry.WritePrometheus) or programmatic inspection
// (obs.Registry.Snapshot).
func (c *Collection) Metrics() *obs.Registry { return c.metrics.reg }
