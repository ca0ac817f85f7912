package core

import "sync/atomic"

// Process-wide instrumentation for the structural name index. The
// counters live here rather than on a Document because index builds
// happen lazily deep inside Hierarchy methods where no registry is in
// scope, and because "how many times did this process build an index"
// is exactly the question an operator asks when checking that the
// incremental-maintenance path (update.go) is carrying its weight
// against full rebuilds. The collection layer samples these through
// obs.CounterFunc at scrape time; updates are single atomic adds so the
// lazy-build fast path stays uncontended.
var (
	indexBuilds     atomic.Uint64 // from-scratch rebuildRuns builds
	indexBuildNanos atomic.Int64  // wall time spent in those builds
	indexPatched    atomic.Uint64 // update runs that patched an index incrementally
	indexLazyReset  atomic.Uint64 // update runs that deferred to a fresh lazy build

	// The path synopsis (synopsis.go) mirrors the name index's
	// lifecycle, so it gets the same four counters.
	synopsisBuilds     atomic.Uint64
	synopsisBuildNanos atomic.Int64
	synopsisPatched    atomic.Uint64
	synopsisLazyReset  atomic.Uint64

	// Overlays (AddHierarchy) and the overlay leaf layers built for them
	// (partitionFrom). A leaf layer is built only when a query reaches
	// one of the overlay's leaves, so the ratio shows how many overlays
	// a workload pays that cost for.
	overlayHierarchies atomic.Uint64
	overlayLayouts     atomic.Uint64
)

// IndexStats is a snapshot of the process-wide name-index counters.
type IndexStats struct {
	// Builds counts from-scratch index builds (lazy first-touch builds
	// and oracle rebuilds alike).
	Builds uint64
	// BuildNanos is the cumulative wall time of those builds.
	BuildNanos int64
	// Patched counts hierarchies whose index an update maintained
	// incrementally instead of discarding.
	Patched uint64
	// LazyReset counts hierarchies whose index an update discarded,
	// deferring to a fresh lazy build on next query.
	LazyReset uint64
	// SynopsisBuilds/SynopsisBuildNanos/SynopsisPatched/SynopsisLazyReset
	// are the same four counters for the path synopsis.
	SynopsisBuilds     uint64
	SynopsisBuildNanos int64
	SynopsisPatched    uint64
	SynopsisLazyReset  uint64
}

// GlobalIndexStats returns the current process-wide name-index
// counters. Values are monotonic for the life of the process.
func GlobalIndexStats() IndexStats {
	return IndexStats{
		Builds:             indexBuilds.Load(),
		BuildNanos:         indexBuildNanos.Load(),
		Patched:            indexPatched.Load(),
		LazyReset:          indexLazyReset.Load(),
		SynopsisBuilds:     synopsisBuilds.Load(),
		SynopsisBuildNanos: synopsisBuildNanos.Load(),
		SynopsisPatched:    synopsisPatched.Load(),
		SynopsisLazyReset:  synopsisLazyReset.Load(),
	}
}

// OverlayStats is a snapshot of the process-wide overlay counters.
type OverlayStats struct {
	// Hierarchies counts overlay documents created by AddHierarchy (one
	// per analyze-string call).
	Hierarchies uint64
	// Layouts counts overlay leaf layers built: overlays some axis step
	// or caller needed the leaves of.
	Layouts uint64
}

// GlobalOverlayStats returns the current process-wide overlay counters.
// Values are monotonic for the life of the process.
func GlobalOverlayStats() OverlayStats {
	return OverlayStats{
		Hierarchies: overlayHierarchies.Load(),
		Layouts:     overlayLayouts.Load(),
	}
}
