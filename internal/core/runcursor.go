package core

import "mhxquery/internal/dom"

// RunCursor iterates a set of per-hierarchy ordinal runs (nameindex.go)
// in document order, lazily: no node slice is materialized, which is
// what lets the query engine's index-scan cursors answer early-exit
// queries like (//w)[1] in O(answer). Runs must be added in hierarchy
// registration order with ascending ordinals (NameRun/SubRun output),
// which per Definition 3 is document order across the concatenation.
//
// The zero value is an empty cursor. RunCursor is not safe for
// concurrent use; each evaluation owns its own.
type RunCursor struct {
	runs  []hierRun
	total int
	hi, i int
}

// hierRun is one hierarchy's ordinal run.
type hierRun struct {
	h   *Hierarchy
	run []int32
}

// Add appends one hierarchy's ordinal run.
func (rc *RunCursor) Add(h *Hierarchy, run []int32) {
	if len(run) == 0 {
		return
	}
	rc.runs = append(rc.runs, hierRun{h, run})
	rc.total += len(run)
}

// Reset empties the cursor for reuse, keeping its run storage.
func (rc *RunCursor) Reset() {
	*rc = RunCursor{runs: rc.runs[:0]}
}

// Len returns the total number of candidates across all runs,
// regardless of how many have been consumed.
func (rc *RunCursor) Len() int { return rc.total }

// At returns the k-th (0-based) candidate across the concatenated runs
// without advancing the cursor; it panics when k is out of range (the
// caller bounds k by Len). This is the O(1) positional shortcut behind
// run-level [k] and [last()] predicates.
func (rc *RunCursor) At(k int) *dom.Node {
	for _, r := range rc.runs {
		if k < len(r.run) {
			return r.h.Nodes[r.run[k]]
		}
		k -= len(r.run)
	}
	panic("core: RunCursor.At out of range")
}

// Split partitions the cursor's candidates into contiguous morsels of
// at most size candidates each, in document order: concatenating the
// morsels' outputs reproduces exactly the cursor's own output. Morsel
// boundaries are O(1) sub-slices of the per-hierarchy runs (the runs
// are already materialized ordinal slices; a morsel aliases them, so
// no ordinals are copied). The receiver must be unconsumed; it remains
// usable afterwards. size < 1 or size >= Len yields one morsel.
func (rc *RunCursor) Split(size int) []RunCursor {
	if size < 1 || size >= rc.total {
		if rc.total == 0 {
			return nil
		}
		return []RunCursor{{runs: rc.runs, total: rc.total}}
	}
	morsels := make([]RunCursor, 0, (rc.total+size-1)/size)
	cur := RunCursor{}
	room := size
	for _, r := range rc.runs {
		run := r.run
		for len(run) > 0 {
			take := len(run)
			if take > room {
				take = room
			}
			cur.runs = append(cur.runs, hierRun{r.h, run[:take]})
			cur.total += take
			run = run[take:]
			room -= take
			if room == 0 {
				morsels = append(morsels, cur)
				cur = RunCursor{}
				room = size
			}
		}
	}
	if cur.total > 0 {
		morsels = append(morsels, cur)
	}
	return morsels
}

// Next returns the next candidate in document order, or ok=false when
// the runs are exhausted.
func (rc *RunCursor) Next() (*dom.Node, bool) {
	for rc.hi < len(rc.runs) {
		r := rc.runs[rc.hi]
		if rc.i < len(r.run) {
			n := r.h.Nodes[r.run[rc.i]]
			rc.i++
			return n, true
		}
		rc.hi++
		rc.i = 0
	}
	return nil, false
}

// NextRun returns the unconsumed rest of the current run together with
// its hierarchy and advances past it, or ok=false when the runs are
// exhausted: the bulk form of Next.
func (rc *RunCursor) NextRun() (h *Hierarchy, run []int32, ok bool) {
	for rc.hi < len(rc.runs) {
		r := rc.runs[rc.hi]
		run, rc.hi, rc.i = r.run[rc.i:], rc.hi+1, 0
		if len(run) > 0 {
			return r.h, run, true
		}
	}
	return nil, nil, false
}
