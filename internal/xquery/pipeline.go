package xquery

import (
	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file is the order-aware step-evaluation pipeline. The reference
// evaluator (evalStepRef) re-sorts and re-dedupes the whole intermediate
// node set after every step — an O(k log k) comparison sort even when
// the axis already emitted document order. The pipeline instead:
//
//   - relies on the axis order contracts (core.Axis.Order): every axis
//     emits a duplicate-free run that is either ascending or descending
//     document order, verified per segment in one O(k) pass, so a
//     reverse-axis run is restored to document order by an O(k)
//     reversal and an ascending run costs nothing;
//   - threads a "sorted and duplicate-free" invariant through the
//     steps: each step's output is in document order, so a step whose
//     input is a single node (the overwhelmingly common case inside
//     predicates and FLWOR bindings) skips merging entirely, and
//     multi-context steps only merge when segment junctions actually
//     interleave;
//   - merges interleaved segments with an O(k) ordinal scatter
//     (core.OrdinalSet) keyed on the document's dense Definition 3
//     ordinals — no comparator, no hashing — falling back to the
//     comparison sort only for nodes without ordinals (attributes,
//     constructed trees), where it reproduces the reference evaluator's
//     stable-sort semantics exactly;
//   - resolves node tests once per (step, document) into interned name
//     symbols and hierarchy indices (resolvedTest), replacing the
//     per-candidate string comparisons and hierarchy map lookups of
//     matchTest;
//   - shortcuts constant positional predicates ([k], [last()]) by
//     stopping candidate iteration at the selected node; and
//   - reuses the axis candidate buffer across context nodes
//     (evalState.axisBuf) and filters predicate results in place, so a
//     steady-state step allocates only its output.
//
// debugNaiveSteps forces the reference evaluator; the differential
// property tests flip it and require byte-identical results.
var debugNaiveSteps = false

// resolvedTest is a node test resolved against one document: the name as
// an interned symbol, hierarchy restrictions as indices. Hierarchy
// resolution stays lazy so that the unknown-hierarchy error is raised at
// exactly the same evaluation point as the reference matchTest (only
// when a candidate actually reaches the hierarchy check).
type resolvedTest struct {
	doc       *core.Document
	t         *nodeTest
	principal dom.Kind
	nameSym   int32
	hierIdx   []int
	hierDone  bool
	hierErr   error
}

func (rt *resolvedTest) init(d *core.Document, s *step) {
	rt.doc = d
	rt.t = &s.test
	rt.principal = dom.Element
	if s.axis == core.AxisAttribute {
		rt.principal = dom.Attribute
	}
	rt.nameSym = 0
	if s.test.kind == testName {
		rt.nameSym = d.NameSymOf(s.test.name)
	}
	rt.hierIdx = rt.hierIdx[:0]
	rt.hierDone = false
	rt.hierErr = nil
}

// match reports whether candidate n passes the test; the check order
// (kind, name, hierarchy) mirrors matchTest so errors surface at the
// same point.
func (rt *resolvedTest) match(n *dom.Node) (bool, error) {
	t := rt.t
	switch t.kind {
	case testName:
		if n.Kind != rt.principal {
			return false, nil
		}
		if n.NameSym != 0 {
			// Document node: symbols decide (rt.nameSym is 0 when the
			// name occurs nowhere in the document, matching no symbol).
			if n.NameSym != rt.nameSym {
				return false, nil
			}
		} else if n.Name != t.name {
			return false, nil
		}
		return rt.hierOK(n)
	case testStar:
		if n.Kind != rt.principal {
			return false, nil
		}
		return rt.hierOK(n)
	case testText:
		if n.Kind != dom.Text {
			return false, nil
		}
		return rt.hierOK(n)
	case testNode:
		if len(t.hiers) == 0 {
			return true, nil
		}
		return rt.hierOK(n)
	case testComment:
		return n.Kind == dom.Comment, nil
	case testPI:
		return n.Kind == dom.ProcInst && (t.name == "" || n.Name == t.name), nil
	case testLeaf:
		if n.Kind != dom.Leaf {
			return false, nil
		}
		return rt.hierOK(n)
	}
	return false, nil
}

// hierOK is hierOK of the reference evaluator with the per-candidate
// string comparisons and map lookups replaced by integer hierarchy
// indices resolved once per (step, document).
func (rt *resolvedTest) hierOK(n *dom.Node) (bool, error) {
	hiers := rt.t.hiers
	if len(hiers) == 0 {
		return true, nil
	}
	if !rt.hierDone {
		rt.hierDone = true
		for _, name := range hiers {
			h := rt.doc.HierarchyByName(name)
			if h == nil {
				rt.hierErr = errf("MHXQ0001", "unknown hierarchy %q in node test", name)
				break
			}
			rt.hierIdx = append(rt.hierIdx, h.Index)
		}
	}
	if rt.hierErr != nil {
		return false, rt.hierErr
	}
	if n == rt.doc.Root {
		return true, nil
	}
	if n.Kind == dom.Leaf {
		for _, p := range rt.doc.LeafParents(n) {
			for _, hi := range rt.hierIdx {
				if p.HierIndex == hi {
					return true, nil
				}
			}
		}
		return false, nil
	}
	if n.Hier == "" { // constructed node: belongs to no hierarchy
		return false, nil
	}
	for _, hi := range rt.hierIdx {
		if n.HierIndex == hi {
			return true, nil
		}
	}
	return false, nil
}

// Segment order classification (one O(k) pass of dom.Compare).
const (
	segAscending  = iota // strictly ascending document order (or < 2 items)
	segDescending        // strictly descending
	segUnordered         // neither (order-degenerate constructed trees, duplicates)
)

func segOrder(seg Seq) int {
	if len(seg) < 2 {
		return segAscending
	}
	asc, desc := true, true
	for i := 1; i < len(seg); i++ {
		c := dom.Compare(seg[i-1].(*dom.Node), seg[i].(*dom.Node))
		if c >= 0 {
			asc = false
		}
		if c <= 0 {
			desc = false
		}
		if !asc && !desc {
			return segUnordered
		}
	}
	if asc {
		return segAscending
	}
	return segDescending
}

// evalStep evaluates one axis step over the context sequence cur,
// returning the result in document order without duplicates (the same
// output as evalStepRef, without its per-step comparison sort).
func evalStep(c *context, cur Seq, s *step) (Seq, error) {
	st := c.st
	var out Seq
	sorted := true      // out is strictly ascending across segment junctions
	degenerate := false // saw an order-degenerate segment: finish with sortDedupe
	var rt resolvedTest
	for _, it := range cur {
		n, ok := it.(*dom.Node)
		if !ok {
			return nil, errf("XPTY0019", "%s:: step applied to an atomic value", s.axis)
		}
		segStart := len(out)
		var ordered bool
		var err error
		if out, ordered, err = axisSegment(c, out, &st.axisBuf, n, st.docFor(n), s, &rt); err != nil {
			return nil, err
		}
		degenerate = degenerate || !ordered
		if sorted && segStart > 0 && len(out) > segStart &&
			dom.Compare(out[segStart-1].(*dom.Node), out[segStart].(*dom.Node)) >= 0 {
			sorted = false
		}
	}
	if degenerate {
		// Order-degenerate nodes have no document ordinals; reproduce
		// the reference stable sort. (Reversed segments were strictly
		// ordered, so reversal cannot perturb stable-sort ties.)
		return sortDedupe(out), nil
	}
	if !sorted {
		return st.mergeDocOrder(out), nil
	}
	return out, nil
}

// axisSegment appends context node n's segment of axis step s to out,
// normalized to ascending document order: the axis candidates (a shared
// view of the document's internal arrays when one exists, else gathered
// into the reusable *buf), filtered by the node test and predicates. It
// reports false for an order-degenerate segment (constructed nodes
// without document order). It is the per-context axis-step
// implementation of both routes.
func axisSegment(c *context, out Seq, buf *[]*dom.Node, n *dom.Node, d *core.Document, s *step, rt *resolvedTest) (Seq, bool, error) {
	if rt.doc != d {
		rt.init(d, s)
	}
	nodes, shared := d.SharedAxis(s.axis, n)
	if !shared {
		if cap(*buf) == 0 {
			// Start modestly and let append grow: descendant name steps
			// run as index scans, so most axis fans are small and a full
			// OrdinalSpace buffer would dominate short queries.
			*buf = make([]*dom.Node, 0, min(d.OrdinalSpace(), 512))
		}
		*buf = appendCandidates((*buf)[:0], d, s, n)
		nodes = *buf
	}
	if out == nil && len(nodes) > 0 {
		out = make(Seq, 0, min(len(nodes), 32))
	}
	segStart := len(out)
	out, err := filterStep(c, out, nodes, s, rt)
	if err != nil {
		return nil, false, err
	}
	switch segOrder(out[segStart:]) {
	case segDescending:
		reverseSeq(out[segStart:])
	case segUnordered:
		return out, false, nil
	}
	return out, true, nil
}

// appendCandidates appends the axis candidates of step s from context
// node n to dst, for when d.SharedAxis has no view. A node test that
// cannot match a leaf takes an extended axis's candidates without the
// leaf layer, so stepping from analyze-string results never builds an
// overlay's leaves (core.Document.AppendAxisNoLeaves). No match is
// lost: such a test rejects every leaf before its hierarchy check, so
// neither results nor errors change.
func appendCandidates(dst []*dom.Node, d *core.Document, s *step, n *dom.Node) []*dom.Node {
	if s.test.kind == testNode || s.test.kind == testLeaf {
		return d.AppendAxis(dst, s.axis, n)
	}
	return d.AppendAxisNoLeaves(dst, s.axis, n)
}

// filterStep appends the candidates passing the step's node test and
// predicates to out. Constant positional first predicates ([k],
// [last()]) stop candidate iteration at the selected node.
func filterStep(c *context, out Seq, nodes []*dom.Node, s *step, rt *resolvedTest) (Seq, error) {
	segStart := len(out)
	preds := s.preds
	if s.posSel != 0 {
		var sel *dom.Node
		if s.posSel > 0 {
			count := 0
			for _, m := range nodes {
				ok, err := rt.match(m)
				if err != nil {
					return nil, err
				}
				if ok {
					if count++; count == s.posSel {
						sel = m
						break
					}
				}
			}
		} else { // [last()]
			for i := len(nodes) - 1; i >= 0; i-- {
				ok, err := rt.match(nodes[i])
				if err != nil {
					return nil, err
				}
				if ok {
					sel = nodes[i]
					break
				}
			}
		}
		if sel == nil {
			return out, nil
		}
		out = append(out, sel)
		preds = preds[1:]
	} else {
		for _, m := range nodes {
			ok, err := rt.match(m)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, m)
			}
		}
	}
	if len(preds) > 0 {
		kept, err := applyPredicatesInPlace(c, out[segStart:], preds)
		if err != nil {
			return nil, err
		}
		out = out[:segStart+len(kept)]
	}
	return out, nil
}

// mergeDocOrder restores document order over an interleaved step result
// via the ordinal scatter; nodes without ordinals fall back to the
// reference comparison sort.
func (st *evalState) mergeDocOrder(out Seq) Seq {
	if len(out) == 0 {
		return out
	}
	d := st.docFor(out[0].(*dom.Node))
	st.ordSet.Reset(d)
	for _, it := range out {
		if !st.ordSet.Add(it.(*dom.Node)) {
			st.ordSet.Clear()
			return sortDedupe(out)
		}
	}
	merged := out[:0]
	st.ordSet.Drain(func(n *dom.Node) { merged = append(merged, n) })
	return merged
}
