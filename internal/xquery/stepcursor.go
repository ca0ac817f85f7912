package xquery

import (
	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file streams path execution: each path operator becomes a cursor
// that pulls context nodes from the operator upstream of it one at a
// time and emits its own result items lazily. Index-scan segments are
// never materialized (they iterate name-index runs through
// core.RunCursor), so a consumer that stops after one item — (//w)[1],
// exists(//dmg), a FLWOR binding under a quantifier — does O(answer)
// work instead of O(document).
//
// # Order and duplicate discipline
//
// A step's output must be ascending Definition 3 document order with no
// duplicates, exactly what the strict executors produce. Streaming
// preserves this by verifying the whole CONTEXT chain before emitting
// anything: the upstream context list (small — it is the previous
// step's result set, which the strict engine materializes anyway) is
// drained and checked, and only then do the result segments (large)
// stream lazily. The chain verifies when every adjacent context pair
// proves its segments cannot interleave or share items:
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
// Anything else — atomic items, constructed or attribute contexts,
// nested subtrees, node()/leaf() tests across multiple contexts,
// cross-document mixes, out-of-order context sequences — routes the
// whole step through the strict executors with nothing yet emitted, so
// the cursor's output (and its error points) are exactly the strict
// engine's.
//
// Non-downward axes (ancestors, siblings, following/preceding, the
// extended overlap axes) always take the strict route: their results
// can precede their context, so no gating applies; the operator then
// streams its materialized result, which still lets everything
// downstream early-exit.

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

// openPath builds the cursor pipeline of a lowered path.
func (p *pPath) open(c *context) cursor {
	var src cursor
	switch {
	case p.start != nil:
		src = popen(p.start, c)
	case p.absolute:
		src = seqCur(Seq{c.st.rootFor(c.item)})
	default:
		if c.item == nil {
			return errCur(errf("XPDY0002", "context item undefined at start of relative path"))
		}
		src = seqCur(Seq{c.item})
	}
	for _, op := range p.ops {
		src = newOpCursor(c, src, op)
		// Under EXPLAIN ANALYZE, time each operator at the pipeline
		// seam; the op cursors keep their own calls/in/out accounting.
		if c.st.timed && c.st.explain != nil {
			src = &opTimerCursor{inner: src, st: c.st, id: op.id}
		}
	}
	return src
}

// newOpCursor wraps one path operator around its upstream cursor.
func newOpCursor(c *context, up cursor, op *pathOp) cursor {
	switch op.kind {
	case opChainScan:
		return &chainCursor{c: c, up: up, op: op}
	case opIndexScan:
		return &stepCursor{c: c, up: up, op: op}
	case opAxisStep:
		if streamableStepAxis(op.s.axis) {
			return &stepCursor{c: c, up: up, op: op}
		}
	}
	return strictOpCursor(c, up, op)
}

// strictOpCursor drains the upstream, evaluates the operator strictly,
// and streams the materialized result.
func strictOpCursor(c *context, up cursor, op *pathOp) cursor {
	return &thunkCursor{f: func() (cursor, error) {
		cur, err := drain(c, up)
		if err != nil {
			return nil, err
		}
		out, err := evalOpStrict(c, cur, op)
		if err != nil {
			return nil, err
		}
		if ex := c.st.explain; ex != nil {
			ex[op.id].calls++
			ex[op.id].in += int64(len(cur))
			ex[op.id].out += int64(len(out))
		}
		return seqCur(out), nil
	}}
}

// stepCursor streams an index-scan or downward axis step under the
// segment-gating protocol: the upstream CONTEXT list (small) is
// materialized and verified as a whole, then the result SEGMENTS
// (large) stream lazily one context at a time. Any verification
// failure routes the whole step through the strict executors before
// anything is emitted, so the streamed output is always exactly the
// strict output.
type stepCursor struct {
	c  *context
	up cursor
	op *pathOp

	opened bool
	ctxs   []*dom.Node // verified streaming contexts
	ci     int
	seg    cursor // current segment (or the whole strict result)

	// Per-(step, document) bindings, reused across segments.
	rt      resolvedTest
	rtDoc   *core.Document
	bind    indexBinding
	bindDoc *core.Document

	// Per-cursor buffers: segments stay valid while being emitted, and
	// nested evaluation (predicates) may run between pulls, so the
	// evalState-shared buffers cannot be used here.
	segBuf  Seq
	axisBuf []*dom.Node
}

func (sc *stepCursor) next() (Item, bool, error) {
	st := sc.c.st
	for {
		if err := st.checkCancel(); err != nil {
			return nil, false, err
		}
		if sc.seg != nil {
			it, ok, err := sc.seg.next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				if st.explain != nil {
					st.explain[sc.op.id].out++
				}
				return it, true, nil
			}
			sc.seg = nil
		}
		if !sc.opened {
			sc.opened = true
			if err := sc.open(); err != nil {
				return nil, false, err
			}
			continue
		}
		if sc.ci < len(sc.ctxs) {
			n := sc.ctxs[sc.ci]
			sc.ci++
			seg, err := sc.openSeg(n, st.docFor(n))
			if err != nil {
				return nil, false, err
			}
			sc.seg = seg
			continue
		}
		return nil, false, nil
	}
}

// open drains the upstream context list and decides the route: lazy
// per-context segments when the whole chain verifies, the strict
// executor otherwise (which also reproduces the reference errors for
// atomic items, constructed nodes and interleaving-prone shapes).
func (sc *stepCursor) open() error {
	c := sc.c
	cur, err := drain(c, sc.up)
	if err != nil {
		return err
	}
	if ex := c.st.explain; ex != nil {
		ex[sc.op.id].calls++
		ex[sc.op.id].in += int64(len(cur))
	}
	if ctxs, ok := sc.streamable(cur); ok {
		sc.ctxs = ctxs
		return nil
	}
	out, err := evalOpStrict(c, cur, sc.op)
	if err != nil {
		return err
	}
	// The strict result streams through seg; out_rows accrues per
	// emitted item either way, so partial drains report what was
	// actually produced.
	sc.seg = seqCur(out)
	sc.ctxs = nil
	return nil
}

// streamable verifies the whole context chain for lazy segment
// emission (see the file comment for the case analysis).
func (sc *stepCursor) streamable(cur Seq) ([]*dom.Node, bool) {
	ctxs := make([]*dom.Node, len(cur))
	var prev *dom.Node
	for i, it := range cur {
		n, ok := it.(*dom.Node)
		if !ok || !sc.verifyCtx(n) {
			return nil, false
		}
		if prev != nil && !sc.verifyPair(prev, n) {
			return nil, false
		}
		ctxs[i] = n
		prev = n
	}
	return ctxs, true
}

// verifyCtx checks that a context node can stream: an element (or the
// shared root) carrying a document ordinal.
func (sc *stepCursor) verifyCtx(n *dom.Node) bool {
	d := sc.c.st.docFor(n)
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
func (sc *stepCursor) verifyPair(a, b *dom.Node) bool {
	st := sc.c.st
	da, db := st.docFor(a), st.docFor(b)
	if da != db || a == da.Root || b == da.Root {
		return false
	}
	if sc.op.s.axis == core.AxisSelf {
		// Segments are the contexts themselves: ascending context order
		// is the whole proof.
		return dom.Compare(a, b) < 0
	}
	kind := sc.op.s.test.kind
	if sc.op.kind == opIndexScan {
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

// openSeg opens the segment cursor for one verified context node.
func (sc *stepCursor) openSeg(n *dom.Node, d *core.Document) (cursor, error) {
	if sc.op.kind == opIndexScan {
		return sc.indexSegment(n, d)
	}
	seg, err := sc.axisSegment(n, d)
	if err != nil {
		return nil, err
	}
	return seqCur(seg), nil
}

// axisSegment materializes one context's axis-step segment (bounded by
// the axis fan-out; descendant name tests run as index scans instead)
// in ascending document order.
func (sc *stepCursor) axisSegment(n *dom.Node, d *core.Document) (Seq, error) {
	s := sc.op.s
	if sc.rtDoc != d {
		sc.rt.init(d, s)
		sc.rtDoc = d
	}
	nodes, shared := d.SharedAxis(s.axis, n)
	if !shared {
		sc.axisBuf = appendCandidates(sc.axisBuf[:0], d, s, n)
		nodes = sc.axisBuf
	}
	out, err := filterStep(sc.c, sc.segBuf[:0], nodes, s, &sc.rt)
	if err != nil {
		return nil, err
	}
	sc.segBuf = out // keep the grown buffer for the next segment
	switch segOrder(out) {
	case segDescending:
		reverseSeq(out)
	case segUnordered:
		// Unreachable for document nodes on the downward axes; keep the
		// strict engine's stable order as a safety net.
		return sortDedupe(out), nil
	}
	return out, nil
}

// indexSegment opens one context's index-scan segment as a lazy run
// cursor: candidates stream straight out of the structural name index.
func (sc *stepCursor) indexSegment(n *dom.Node, d *core.Document) (cursor, error) {
	c, s := sc.c, sc.op.s
	if sc.bindDoc != d {
		if sc.op.bind.doc == d {
			sc.bind = sc.op.bind
		} else {
			sc.bind = resolveIndexBinding(d, s)
		}
		sc.bindDoc = d
	}
	bind := &sc.bind
	if bind.nameSym == 0 {
		return emptyCur, nil
	}
	inclSelf := s.axis == core.AxisDescendantOrSelf
	if bind.hierErr != nil {
		// Unknown hierarchy in the test: raised only when a kind+name
		// candidate exists (the reference evaluation point).
		if indexCandidateExists(d, n, bind.nameSym, inclSelf) {
			return nil, bind.hierErr
		}
		return emptyCur, nil
	}
	rs := &runSegCursor{}
	switch {
	case n == d.Root:
		if inclSelf && n.NameSym == bind.nameSym {
			rs.self = n
		}
		if len(bind.hierIdx) > 0 {
			for _, hi := range bind.hierIdx {
				rs.rc.Add(d.Hiers[hi], d.Hiers[hi].NameRun(bind.nameSym))
			}
		} else {
			for _, h := range d.Hiers {
				rs.rc.Add(h, h.NameRun(bind.nameSym))
			}
		}
	case n.HierIndex >= 0 && n.HierIndex < len(d.Hiers):
		if !bind.allows(n.HierIndex) {
			return emptyCur, nil
		}
		h := d.Hiers[n.HierIndex]
		if inclSelf && n.NameSym == bind.nameSym {
			rs.self = n
		}
		rs.rc.Add(h, core.SubRun(h.NameRun(bind.nameSym), n.Ord, n.Last))
	default:
		return emptyCur, nil
	}
	preds := s.preds
	if s.posSel != 0 {
		// Run-level positional shortcut: [k]/[last()] index directly
		// into the runs, O(1) instead of O(matches).
		var sel Item
		total := rs.total()
		if s.posSel > 0 {
			if total >= s.posSel {
				sel = rs.at(s.posSel - 1)
			}
		} else if total > 0 {
			sel = rs.at(total - 1)
		}
		if sel == nil {
			return emptyCur, nil
		}
		items, err := applyPredicates(c, Seq{sel}, preds[1:])
		if err != nil {
			return nil, err
		}
		return seqCur(items), nil
	}
	switch len(preds) {
	case 0:
		return rs, nil
	case 1:
		// Single predicate: stream candidates with exact (pos, size) —
		// the candidate count is known from the run lengths, so even
		// last() works without materializing. Large eligible segments
		// engage adaptively parallel filtering (parallel.go), which
		// serves the first morsel just as lazily.
		total := rs.total()
		if parWorthwhile(c.st, sc.op, total) {
			return &parPredCursor{c: c, op: sc.op, rs: rs, pr: preds[0], total: total,
				phaseA: morselSizeFor(total, c.st.parallelism())}, nil
		}
		return &predCursor{inner: rs, pr: preds[0], c: c, size: total}, nil
	}
	// Multiple predicates chain position semantics through the
	// survivors of each stage; materialize the segment.
	items, err := drain(c, rs)
	if err != nil {
		return nil, err
	}
	if parWorthwhile(c.st, sc.op, len(items)) {
		items, err = parFilterPreds(c, items, preds, 0, len(items), sc.op.id)
	} else {
		items, err = applyPredicatesInPlace(c, items, preds)
	}
	if err != nil {
		return nil, err
	}
	return seqCur(items), nil
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

// chainCursor streams a leading child:: chain: with the single shared
// root as context (the only shape the planner emits it for), candidates
// stream from the last name's index runs with lazy upward ancestor
// verification. Anything else falls back to the strict executor.
type chainCursor struct {
	c  *context
	up cursor
	op *pathOp

	opened bool
	d      *core.Document
	bind   chainBinding
	hi     int // current hierarchy
	i      int // position in current run
	run    []int32
	tail   cursor
	done   bool

	// Adaptive parallel engagement (parallel.go): candidates examined so
	// far and the serial-phase budget — one morsel's worth, after which a
	// still-pulling consumer triggers a parallel verify of the remainder.
	// phaseA < 0 disables engagement.
	examined int
	phaseA   int
}

func (cc *chainCursor) next() (Item, bool, error) {
	c := cc.c
	if cc.tail != nil {
		return cc.tail.next()
	}
	if cc.done {
		return nil, false, nil
	}
	if !cc.opened {
		cc.opened = true
		if ex := c.st.explain; ex != nil {
			ex[cc.op.id].calls++
		}
		it, ok, err := cc.up.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			cc.done = true
			return nil, false, nil
		}
		n, isNode := it.(*dom.Node)
		if !isNode {
			return nil, false, errf("XPTY0019", "%s:: step applied to an atomic value", core.AxisChild)
		}
		if ex := c.st.explain; ex != nil {
			ex[cc.op.id].in++
		}
		d := c.st.docFor(n)
		it2, more, err := cc.up.next()
		if err != nil {
			return nil, false, err
		}
		if more || n != d.Root {
			// Multiple contexts or a non-root context: strict route.
			lead := Seq{n}
			if more {
				lead = append(lead, it2)
			}
			rest, err := drain(c, cc.up)
			if err != nil {
				return nil, false, err
			}
			all := append(lead, rest...)
			out, err := evalChainScan(c, all, cc.op)
			if err != nil {
				return nil, false, err
			}
			if ex := c.st.explain; ex != nil {
				ex[cc.op.id].in += int64(len(all) - 1)
				ex[cc.op.id].out += int64(len(out))
			}
			cc.tail = seqCur(out)
			return cc.tail.next()
		}
		cc.d = d
		cc.bind = cc.op.chainBind
		if cc.bind.doc != d {
			cc.bind = resolveChainBinding(d, cc.op.chn)
		}
		if !cc.bind.ok {
			cc.done = true
			return nil, false, nil
		}
		cc.phaseA = -1
		lastSym := cc.bind.syms[len(cc.bind.syms)-1]
		total := 0
		for _, h := range d.Hiers {
			total += len(h.NameRun(lastSym))
		}
		if parWorthwhile(c.st, cc.op, total) {
			cc.phaseA = morselSizeFor(total, c.st.parallelism())
		}
	}
	last := cc.bind.syms[len(cc.bind.syms)-1]
	for {
		if err := c.st.checkCancel(); err != nil {
			return nil, false, err
		}
		if cc.phaseA >= 0 && cc.examined >= cc.phaseA {
			// The consumer drained past the serial phase: verify every
			// remaining candidate in parallel and stream the survivors.
			var rest []*dom.Node
			hi, i := cc.hi, cc.i
			if cc.run == nil {
				i = 0
			}
			for ; hi < len(cc.d.Hiers); hi++ {
				run := cc.d.Hiers[hi].NameRun(last)
				for ; i < len(run); i++ {
					rest = append(rest, cc.d.Hiers[hi].Nodes[run[i]])
				}
				i = 0
			}
			kept, err := parFilterChain(c, rest, cc.d, cc.bind.syms, cc.op.id)
			if err != nil {
				return nil, false, err
			}
			if ex := c.st.explain; ex != nil {
				ex[cc.op.id].out += int64(len(kept))
			}
			cc.tail = seqCur(nodesToSeq(kept))
			return cc.tail.next()
		}
		if cc.run == nil {
			if cc.hi >= len(cc.d.Hiers) {
				cc.done = true
				return nil, false, nil
			}
			cc.run = cc.d.Hiers[cc.hi].NameRun(last)
			cc.i = 0
			if len(cc.run) == 0 {
				cc.run = nil
				cc.hi++
				continue
			}
		}
		if cc.i >= len(cc.run) {
			cc.run = nil
			cc.hi++
			continue
		}
		m := cc.d.Hiers[cc.hi].Nodes[cc.run[cc.i]]
		cc.i++
		cc.examined++
		if chainAncestorsMatch(cc.d, m, cc.bind.syms) {
			if ex := c.st.explain; ex != nil {
				ex[cc.op.id].out++
			}
			return m, true, nil
		}
	}
}
