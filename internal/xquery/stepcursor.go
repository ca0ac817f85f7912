package xquery

import (
	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file streams path execution. A path runs its start expression
// and every operator but the last materialized (pPath.run, plan.go):
// each operator consumes the whole result of the one before it. Only
// the LAST operator streams (pPath.open): index-scan segments are never
// materialized (they iterate name-index runs through core.RunCursor),
// so a consumer that stops after one item — (//w)[1], exists(//dmg), a
// FLWOR binding under a quantifier — does O(answer) work instead of
// O(document). Each operator kind has one per-context implementation
// that both routes share: indexCandidates/indexSegment for index
// scans, axisSegment for axis steps, chainCursor for chain scans.
//
// # Order and duplicate discipline
//
// A step's output must be ascending Definition 3 document order with no
// duplicates, exactly what the materialized route produces. The last
// operator streams only when its context list — the materialized result
// of the operators before it — verifies as a whole, so that its result
// segments, emitted one context at a time, can neither interleave nor
// share items. The list verifies when every adjacent context pair
// proves it:
//
//   - both are ordinal-bearing element nodes of the same document;
//   - same hierarchy: the successor's preorder ordinal lies beyond the
//     predecessor's subtree (disjoint subtrees ⟹ for the downward
//     axes every item of one segment precedes every item of the next —
//     including shared leaves, whose spans inherit the subtree order);
//   - different hierarchies (in registration order): only for
//     single-kind node tests that cannot select shared leaves
//     (name/*/text()), whose segments stay inside their hierarchy's
//     document-order block;
//   - self axis: context order alone suffices (segments are the
//     contexts themselves).
//
// A chain scan streams when its single context is the shared root (the
// only shape the planner emits it for). Anything else — atomic items,
// constructed or attribute contexts, nested subtrees, node()/leaf()
// tests across multiple contexts, cross-document mixes, out-of-order
// context lists, and the non-downward axes, whose results can precede
// their context — evaluates the operator materialized (runOp) with
// nothing yet emitted and streams that result, so the cursor's output
// and its error points are exactly the materialized route's, and
// everything downstream can still exit early.

// streamableStepAxis reports whether the axis's results always lie
// within the context's subtree closure (the downward property segment
// gating relies on).
func streamableStepAxis(a core.Axis) bool {
	switch a {
	case core.AxisChild, core.AxisSelf, core.AxisDescendant, core.AxisDescendantOrSelf:
		return true
	}
	return false
}

// open streams a lowered path: on first pull it materializes the start
// expression and every operator but the last (run), then opens the
// last operator over that context list (openOp). One countingCursor
// does the last operator's explain accounting.
func (p *pPath) open(c *context) cursor {
	last := p.ops[len(p.ops)-1]
	var cur cursor = &thunkCursor{f: func() (cursor, error) {
		ctxs, err := p.run(c, len(p.ops)-1)
		if err != nil {
			return nil, err
		}
		if ex := c.st.explain; ex != nil {
			ex[last.id].calls++
			ex[last.id].in += int64(len(ctxs))
		}
		return openOp(c, ctxs, last)
	}}
	if c.st.explain != nil {
		cur = &countingCursor{inner: cur, st: c.st, id: last.id}
	}
	return cur
}

// openOp opens one path operator over its materialized context list:
// streamed per context segment when the list verifies (see the file
// comment), else evaluated by runOp.
func openOp(c *context, cur Seq, op *pathOp) (cursor, error) {
	switch {
	case op.kind == opChainScan:
		if root, ok := chainRoot(c, cur); ok {
			return newChainCursor(c, op, root), nil
		}
	case op.kind == opIndexScan || op.kind == opAxisStep && streamableStepAxis(op.s.axis):
		if ctxs, ok := streamable(c.st, op, cur); ok {
			return &stepCursor{c: c, op: op, ctxs: ctxs}, nil
		}
	}
	out, err := runOp(c, cur, op)
	return seqCur(out), err
}

// stepCursor streams an index-scan or downward axis step over a
// verified context list, one lazily opened result segment per context.
type stepCursor struct {
	c    *context
	op   *pathOp
	ctxs []*dom.Node
	ci   int
	seg  cursor // current segment

	// Per-(step, document) bindings and the index segment's run cursor,
	// reused across segments.
	rt   resolvedTest
	bind indexBinding
	rs   runSegCursor

	// Per-cursor buffers: segments stay valid while being emitted, and
	// nested evaluation (predicates) may run between pulls, so the
	// evalState-shared buffers cannot be used here.
	segBuf  Seq
	axisBuf []*dom.Node
}

func (sc *stepCursor) next() (Item, bool, error) {
	for {
		if err := sc.c.st.checkCancel(); err != nil {
			return nil, false, err
		}
		if sc.seg != nil {
			it, ok, err := sc.seg.next()
			if err != nil || ok {
				return it, ok, err
			}
			sc.seg = nil
		}
		if sc.ci == len(sc.ctxs) {
			return nil, false, nil
		}
		n := sc.ctxs[sc.ci]
		sc.ci++
		seg, err := sc.openSeg(n)
		if err != nil {
			return nil, false, err
		}
		sc.seg = seg
	}
}

// streamable verifies the whole context list for lazy segment emission
// (see the file comment for the case analysis).
func streamable(st *evalState, op *pathOp, cur Seq) ([]*dom.Node, bool) {
	ctxs := make([]*dom.Node, len(cur))
	var prev *dom.Node
	for i, it := range cur {
		n, ok := it.(*dom.Node)
		if !ok || !verifyCtx(st, n) {
			return nil, false
		}
		if prev != nil && !verifyPair(st, op, prev, n) {
			return nil, false
		}
		ctxs[i] = n
		prev = n
	}
	return ctxs, true
}

// verifyCtx checks that a context node can stream: an element (or the
// shared root) carrying a document ordinal.
func verifyCtx(st *evalState, n *dom.Node) bool {
	d := st.docFor(n)
	if n == d.Root {
		return true
	}
	if n.Kind != dom.Element {
		return false
	}
	_, ok := d.OrdinalOf(n)
	return ok
}

// verifyPair proves segment a cannot interleave with (or duplicate
// into) any segment at or after b (see the file comment).
func verifyPair(st *evalState, op *pathOp, a, b *dom.Node) bool {
	da, db := st.docFor(a), st.docFor(b)
	if da != db || a == da.Root || b == da.Root {
		return false
	}
	if op.s.axis == core.AxisSelf {
		// Segments are the contexts themselves: ascending context order
		// is the whole proof.
		return dom.Compare(a, b) < 0
	}
	kind := op.s.test.kind
	if op.kind == opIndexScan {
		kind = testName
	}
	if a.HierIndex == b.HierIndex {
		if b.Ord <= a.Last {
			return false // nested or out of order
		}
		switch kind {
		case testName, testStar, testText, testLeaf:
			return true
		}
		return false // node(): element and leaf order blocks interleave
	}
	if a.HierIndex < b.HierIndex {
		switch kind {
		case testName, testStar, testText:
			// Single-kind tests that cannot select shared leaves:
			// segments stay within their hierarchy's document-order
			// block. Leaf-capable tests are excluded — hierarchies
			// share leaves, so cross-hierarchy segments may overlap.
			return true
		}
	}
	return false
}

// openSeg opens the segment cursor for one verified context node. An
// unfiltered or singly filtered index segment streams straight out of
// the name index; every other segment is materialized by the shared
// per-context implementation.
func (sc *stepCursor) openSeg(n *dom.Node) (cursor, error) {
	c, op := sc.c, sc.op
	d := c.st.docFor(n)
	if op.kind == opAxisStep {
		seg, ordered, err := axisSegment(c, sc.segBuf[:0], &sc.axisBuf, n, d, op.s, &sc.rt)
		if err != nil {
			return nil, err
		}
		sc.segBuf = seg // keep the grown buffer for the next segment
		if !ordered {
			// Unreachable for document nodes on the downward axes; keep
			// the materialized route's stable order as a safety net.
			seg = sortDedupe(seg)
		}
		return seqCur(seg), nil
	}
	rs := &sc.rs
	if err := indexCandidates(op.indexBind(&sc.bind, d), rs, n, d, op.s.axis == core.AxisDescendantOrSelf); err != nil {
		return nil, err
	}
	if op.s.posSel == 0 {
		switch len(op.s.preds) {
		case 0:
			return rs, nil
		case 1:
			// Stream candidates with exact (pos, size) — the candidate
			// count is known from the run lengths, so even last() works
			// without materializing. Large eligible segments engage
			// adaptively parallel filtering (parallel.go), which serves
			// the first morsel just as lazily.
			pc := predCursor{inner: rs, pr: op.s.preds[0], c: c, size: rs.total()}
			if parWorthwhile(c.st, op, pc.size) {
				pc.limit = morselSizeFor(pc.size, c.st.parallelism())
				return &parPredCursor{predCursor: pc, op: op, rs: rs}, nil
			}
			return &pc, nil
		}
	}
	seg, err := indexSegment(c, op, rs, sc.segBuf[:0])
	sc.segBuf = seg
	return seqCur(seg), err
}

// runSegCursor streams one index segment: the optional self match
// followed by the per-hierarchy subtree-restricted runs.
type runSegCursor struct {
	self *dom.Node
	rc   core.RunCursor
}

func (rs *runSegCursor) total() int {
	if rs.self != nil {
		return rs.rc.Len() + 1
	}
	return rs.rc.Len()
}

func (rs *runSegCursor) at(k int) *dom.Node {
	if rs.self != nil {
		if k == 0 {
			return rs.self
		}
		k--
	}
	return rs.rc.At(k)
}

// reset empties the segment for reuse, keeping the run storage.
func (rs *runSegCursor) reset() {
	rs.self = nil
	rs.rc.Reset()
}

// appendTo appends the unconsumed candidates to out in bulk.
func (rs *runSegCursor) appendTo(out Seq) Seq {
	if rs.self != nil {
		out = append(out, rs.self)
		rs.self = nil
	}
	for h, run, ok := rs.rc.NextRun(); ok; h, run, ok = rs.rc.NextRun() {
		for _, ord := range run {
			out = append(out, h.Nodes[ord])
		}
	}
	return out
}

func (rs *runSegCursor) next() (Item, bool, error) {
	if rs.self != nil {
		n := rs.self
		rs.self = nil
		return n, true, nil
	}
	if n, ok := rs.rc.Next(); ok {
		return n, true, nil
	}
	return nil, false, nil
}

// chainCursor streams a leading child:: chain from the shared root:
// candidates stream from the last name's index runs with lazy upward
// ancestor verification. Both routes use it: openOp streams it as the
// last operator, runOp drains it.
type chainCursor struct {
	c    *context
	op   *pathOp
	d    *core.Document
	syms []int32
	rc   core.RunCursor
	tail cursor

	// Adaptive parallel engagement (parallel.go): candidates examined so
	// far and the serial-phase budget — one morsel's worth, after which a
	// still-pulling consumer triggers a parallel verify of the remainder.
	// phaseA < 0 disables engagement.
	examined int
	phaseA   int
}

// chainRoot returns the context list's single node when it is the
// shared root: the one context a chain scan streams from.
func chainRoot(c *context, cur Seq) (*dom.Node, bool) {
	if len(cur) != 1 {
		return nil, false
	}
	n, ok := cur[0].(*dom.Node)
	return n, ok && n == c.st.docFor(n).Root
}

func newChainCursor(c *context, op *pathOp, root *dom.Node) *chainCursor {
	d := c.st.docFor(root)
	bind := op.chainBind
	if bind.doc != d {
		bind = resolveChainBinding(d, op.chn)
	}
	cc := &chainCursor{c: c, op: op, d: d, syms: bind.syms, phaseA: -1}
	if !bind.ok {
		return cc // some chain name occurs nowhere in the document: no candidates
	}
	for _, h := range d.Hiers {
		cc.rc.Add(h, h.NameRun(bind.syms[len(bind.syms)-1]))
	}
	if total := cc.rc.Len(); parWorthwhile(c.st, op, total) {
		cc.phaseA = morselSizeFor(total, c.st.parallelism())
	}
	return cc
}

func (cc *chainCursor) next() (Item, bool, error) {
	for cc.tail == nil {
		if err := cc.c.st.checkCancel(); err != nil {
			return nil, false, err
		}
		if cc.phaseA >= 0 && cc.examined >= cc.phaseA {
			// The consumer drained past the serial phase: verify every
			// remaining candidate in parallel and stream the survivors.
			rest := make([]*dom.Node, 0, cc.rc.Len()-cc.examined)
			for m, ok := cc.rc.Next(); ok; m, ok = cc.rc.Next() {
				rest = append(rest, m)
			}
			kept, err := parFilterChain(cc.c, rest, cc.d, cc.syms, cc.op.id)
			if err != nil {
				return nil, false, err
			}
			cc.tail = seqCur(nodesToSeq(kept))
			break
		}
		m, ok := cc.rc.Next()
		if !ok {
			return nil, false, nil
		}
		cc.examined++
		if chainAncestorsMatch(cc.d, m, cc.syms) {
			return m, true, nil
		}
	}
	return cc.tail.next()
}
