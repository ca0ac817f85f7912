package xquery

import (
	"runtime"
	"sync/atomic"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
	"mhxquery/internal/obs"
	"mhxquery/internal/sched"
)

// This file is morsel-driven parallel execution inside one query. An
// index-scan (or fused //name[pred]) whose predicates are provably
// position-independent (plan.go marks pathOp.parallel), and a
// chain-scan's ancestor verification, partition their candidate lists
// into contiguous morsels dispatched to the process-wide worker pool
// (internal/sched, shared with collection fan-out). Workers filter
// each morsel into its own region of the candidate slice; because
// morsels partition the document-order candidate stream contiguously,
// concatenating the per-morsel survivors in morsel order reproduces
// the serial output exactly — Definition 3 document order is preserved
// by construction, with no re-sort and no ordinal scatter.
//
// Exactness rules (the differential sweep pins these):
//
//   - Predicates evaluate with their true global (position(), last())
//     focus even though eligibility guarantees they never consult it.
//   - Multi-predicate steps run pred-at-a-time with a barrier between
//     predicates (morsel-parallel within each), so the surviving
//     candidate list each later predicate sees — and therefore the
//     first error the whole filter raises — is exactly the serial
//     one's.
//   - On error, every morsel still runs to its own first error and the
//     earliest morsel's error is reported: candidates before the
//     serial route's error point are error-free, so the earliest
//     morsel error IS the serial error. Cancellation (MHXQ0002)
//     surfaces the same way from whichever worker polls it first.
//   - Order-observable shapes never parallelize: analyze-string
//     overlays (strictOnly plans), positional predicates and [k]/
//     [last()] shortcuts are excluded at plan time, and the streaming
//     route serves the first morsel serially so early-exit consumers
//     ((//w)[1], exists()) never pay for — or observe — parallelism.
//
// Workers evaluate through cloned evalStates (own scratch buffers,
// explain counters and cancellation ticks; shared immutable document,
// plan and resolver) with pool=nil, so nested parallelism inside a
// predicate is structurally impossible.

// ---- knobs -----------------------------------------------------------------

// queryWorkersN is the configured intra-query parallelism; 0 means
// "default to GOMAXPROCS".
var queryWorkersN atomic.Int32

// SetQueryWorkers sets the maximum number of workers (including the
// evaluating goroutine) one query may use for morsel execution. n <= 1
// disables intra-query parallelism; 0 restores the GOMAXPROCS default.
// Workers come from the process-wide scheduler shared with collection
// fan-out, so this never grows total concurrency past the pool budget.
func SetQueryWorkers(n int) {
	if n < 0 {
		n = 0
	}
	queryWorkersN.Store(int32(n))
	if n > 1 {
		sched.Default().Ensure(n)
	}
}

// QueryWorkers returns the effective intra-query parallelism.
func QueryWorkers() int {
	if v := queryWorkersN.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

// Morsel sizing. Morsels are contiguous candidate slices; the size
// adapts to keep every worker several morsels of work (load balance)
// without dropping below parMinMorsel candidates (dispatch overhead)
// or growing past parMaxMorsel (latency of the slowest morsel). Vars,
// not consts, so tests can shrink them to exercise multi-morsel
// execution on small corpora.
var (
	parMinMorsel = 64
	parMaxMorsel = 4096
	parEngageMin = 128 // smallest candidate count worth going parallel
)

func morselSizeFor(n, par int) int {
	m := n / (4 * par)
	if m < parMinMorsel {
		m = parMinMorsel
	}
	if m > parMaxMorsel {
		m = parMaxMorsel
	}
	return m
}

// parWorthwhile reports whether a marked-parallel operator should
// actually engage morsel execution for a segment of total candidates.
func parWorthwhile(st *evalState, op *pathOp, total int) bool {
	return op.parallel && st.parallelism() > 1 &&
		total >= parEngageMin && total >= 2*parMinMorsel
}

// ---- process-wide stats ----------------------------------------------------

var (
	morselsTotal    atomic.Uint64
	parQueriesTotal atomic.Uint64
	morselHist      = obs.NewHistogram(obs.LatencyBuckets)
)

// ParallelStats returns the process-wide morsel-execution counters:
// morsels dispatched and evaluations that engaged parallelism at
// least once.
func ParallelStats() (morsels, parallelQueries uint64) {
	return morselsTotal.Load(), parQueriesTotal.Load()
}

// MorselSeconds is the process-wide morsel execution-time histogram,
// for registration into metrics registries
// (obs.Registry.RegisterHistogram).
func MorselSeconds() *obs.Histogram { return morselHist }

// ---- per-slot worker contexts ----------------------------------------------

// slotContexts builds the lazy per-participant evaluation contexts of
// one parallel pass: slot 0 is the submitting goroutine and evaluates
// through the parent state; helper slots clone it on first use.
type slotContexts struct {
	c      *context
	states []*evalState
	ctxs   []*context
}

func newSlotContexts(c *context, par int) *slotContexts {
	sc := &slotContexts{c: c, states: make([]*evalState, par), ctxs: make([]*context, par)}
	sc.states[0], sc.ctxs[0] = c.st, c
	return sc
}

// at returns slot's context. Each slot is owned by exactly one
// goroutine for the duration of the ParallelFor (sched's slot
// contract), so no locking is needed.
func (sc *slotContexts) at(slot int) *context {
	if sc.ctxs[slot] == nil {
		ws := sc.c.st.workerState()
		cc := *sc.c
		cc.st = ws
		sc.states[slot] = ws
		sc.ctxs[slot] = &cc
	}
	return sc.ctxs[slot]
}

// merge folds helper explain counters back into the parent state and
// records the pass's morsel/worker stats on the operator's slot.
func (sc *slotContexts) merge(opID int, morsels int64, slotRows []int64) {
	st := sc.c.st
	for _, ws := range sc.states[1:] {
		if ws != nil {
			st.mergeWorker(ws)
		}
	}
	if !st.parEngaged {
		st.parEngaged = true
		parQueriesTotal.Add(1)
	}
	morselsTotal.Add(uint64(morsels))
	if ex := st.explain; ex != nil && opID >= 0 && opID < len(ex) {
		cd := &ex[opID]
		cd.morsels += morsels
		if len(cd.workerRows) < len(slotRows) {
			cd.workerRows = append(cd.workerRows, make([]int64, len(slotRows)-len(cd.workerRows))...)
		}
		for i, r := range slotRows {
			cd.workerRows[i] += r
		}
	}
}

// ---- parallel predicate filtering ------------------------------------------

// predRange filters items[lo:hi) by one predicate, compacting
// survivors to items[lo:lo+kept) — the keep rule of predKeeps, with the
// item's focus position supplied as pos0+index+1 (pos0 = position
// offset of items[0] in the segment). Returns the survivor count and
// the first error.
func predRange(c *context, items Seq, lo, hi int, pr expr, pos0, size int) (int, error) {
	c2 := *c
	c2.size = size
	w := lo
	for k := lo; k < hi; k++ {
		if err := c.st.checkCancel(); err != nil {
			return w - lo, err
		}
		it := items[k]
		c2.item, c2.pos = it, pos0+k+1
		keep, err := predKeeps(&c2, pr)
		if err != nil {
			return w - lo, err
		}
		if keep {
			items[w] = it
			w++
		}
	}
	return w - lo, nil
}

// parFilterPreds filters one index segment's materialized candidates
// by preds on the shared pool, pred-at-a-time with morsel-parallel
// evaluation inside each predicate. items is compacted in place and
// the surviving prefix returned. pos0 is the 0-based offset of
// items[0] within the segment's full candidate list and size0 the
// first predicate's focus size (the full candidate count); later
// predicates see the surviving list itself as their focus, exactly
// like applyPredicatesInPlace.
func parFilterPreds(c *context, items Seq, preds []expr, pos0, size0, opID int) (Seq, error) {
	st := c.st
	par := st.parallelism()
	slots := newSlotContexts(c, par)
	slotRows := make([]int64, par)
	var nMorsels int64
	for pi, pr := range preds {
		n := len(items)
		if n == 0 {
			break
		}
		base, size := pos0, size0
		if pi > 0 {
			base, size = 0, n
		}
		if f, ok := constNumPred(pr); ok {
			// Unreachable for marked-parallel ops (predNeverNumeric), but
			// keep the serial rule for safety.
			items = selectByConstPos(items, f)
			continue
		}
		msize := morselSizeFor(n, par)
		if n <= msize {
			kept, err := predRange(c, items, 0, n, pr, base, size)
			if err != nil {
				slots.merge(opID, nMorsels, slotRows)
				return nil, err
			}
			items = items[:kept]
			continue
		}
		nm := (n + msize - 1) / msize
		counts := make([]int, nm)
		errs := make([]error, nm)
		st.pool.ParallelFor(sched.Morsel, nm, par, func(mi, slot int) {
			lo := mi * msize
			hi := lo + msize
			if hi > n {
				hi = n
			}
			t0 := time.Now()
			cw := slots.at(slot)
			counts[mi], errs[mi] = predRange(cw, items, lo, hi, pr, base, size)
			slotRows[slot] += int64(hi - lo)
			morselHist.Observe(time.Since(t0).Seconds())
		})
		nMorsels += int64(nm)
		for mi := 0; mi < nm; mi++ {
			if errs[mi] != nil {
				slots.merge(opID, nMorsels, slotRows)
				return nil, errs[mi]
			}
		}
		// Concatenate per-morsel survivors in morsel order: serial order.
		w := counts[0]
		for mi := 1; mi < nm; mi++ {
			lo := mi * msize
			copy(items[w:w+counts[mi]], items[lo:lo+counts[mi]])
			w += counts[mi]
		}
		items = items[:w]
	}
	slots.merge(opID, nMorsels, slotRows)
	return items, nil
}

// ---- parallel chain verification -------------------------------------------

// parFilterChain keeps the chain-scan candidates whose ancestor chain
// matches syms, morsel-parallel. chainAncestorsMatch reads only the
// immutable document, so workers share nothing but cancellation state.
// items is compacted in place; survivors keep candidate order.
func parFilterChain(c *context, items []*dom.Node, d *core.Document, syms []int32, opID int) ([]*dom.Node, error) {
	st := c.st
	par := st.parallelism()
	n := len(items)
	slots := newSlotContexts(c, par)
	slotRows := make([]int64, par)
	msize := morselSizeFor(n, par)
	nm := (n + msize - 1) / msize
	counts := make([]int, nm)
	errs := make([]error, nm)
	st.pool.ParallelFor(sched.Morsel, nm, par, func(mi, slot int) {
		lo := mi * msize
		hi := lo + msize
		if hi > n {
			hi = n
		}
		t0 := time.Now()
		ws := slots.at(slot).st
		w := lo
		for k := lo; k < hi; k++ {
			if err := ws.checkCancel(); err != nil {
				errs[mi] = err
				break
			}
			if chainAncestorsMatch(d, items[k], syms) {
				items[w] = items[k]
				w++
			}
		}
		counts[mi] = w - lo
		slotRows[slot] += int64(hi - lo)
		morselHist.Observe(time.Since(t0).Seconds())
	})
	slots.merge(opID, int64(nm), slotRows)
	for mi := 0; mi < nm; mi++ {
		if errs[mi] != nil {
			return nil, errs[mi]
		}
	}
	w := counts[0]
	for mi := 1; mi < nm; mi++ {
		lo := mi * msize
		copy(items[w:w+counts[mi]], items[lo:lo+counts[mi]])
		w += counts[mi]
	}
	return items[:w], nil
}

// ---- streaming route -------------------------------------------------------

// parPredCursor streams an index segment filtered by one
// position-independent predicate with adaptive parallel engagement:
// the first morsel's candidates serve lazily through the serial
// predCursor (its limit), so early-exit consumers ((//w[p])[1],
// exists()) do exactly the serial route's work; a consumer that drains
// past them triggers one parallel filter pass over every remaining
// candidate, whose buffered survivors then stream out in document
// order. Deterministic errors surface identically to the serial
// cursor (phase-A errors during phase A; later errors are the
// earliest remaining candidate's, per parFilterPreds).
type parPredCursor struct {
	predCursor
	op   *pathOp
	rs   *runSegCursor
	tail cursor
}

func (pc *parPredCursor) next() (Item, bool, error) {
	if pc.tail == nil {
		if it, ok, err := pc.predCursor.next(); ok || err != nil || pc.pos < pc.limit {
			return it, ok, err
		}
		// Crossed the first morsel with the consumer still pulling:
		// filter everything that remains in parallel.
		rest := pc.rs.appendTo(make(Seq, 0, pc.size-pc.pos))
		out, err := parFilterPreds(pc.c, rest, []expr{pc.pr}, pc.pos, pc.size, pc.op.id)
		if err != nil {
			return nil, false, err
		}
		pc.tail = seqCur(out)
	}
	return pc.tail.next()
}
