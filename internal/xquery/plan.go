package xquery

import (
	"sort"
	"strings"
	"sync"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file is the compile→plan→execute layer. Compile parses a query
// into an AST once; PlanFor lowers the ENTIRE AST — every expression
// kind, not just paths — into physical operators (pnode, lower.go) for
// one document hierarchy layout (core.Document.Signature), binding node
// tests to interned name symbols and hierarchy indices at plan time.
// Execution is cursor-based: results stream from name-index runs and
// axis steps through predicates, FLWOR bindings and aggregation, so
// early-exit consumers stop the pipeline after the items they need.
//
// A path lowers to its start expression plus a list of operators:
//
//   - index-scan: descendant::name and descendant-or-self::name steps
//     (including the //name abbreviation, whose descendant-or-self::
//     node()/child::name pair is fused at plan time) read the
//     structural name index (core nameindex.go) instead of walking the
//     GODDAG: per hierarchy, the ascending ordinal run of elements
//     bearing the name, restricted to the context subtree by binary
//     search, emitted in document order with no per-candidate test.
//   - chain-scan: a leading /child::a/child::b/… chain over an
//     absolute path scans the index run of the last name and verifies
//     each candidate's ancestor chain upward to the shared root —
//     O(matches · chain length) instead of a level-by-level walk.
//   - axis-step: everything else runs through the order-aware pipeline
//     (pipeline.go).
//   - primary: a primary-expression step ("$x/string(.)").
//
// A path executes on one route: the start expression and every
// operator but the last run materialized, each over the whole result
// of the one before it (pPath.run, runOp); only the last operator
// streams (pPath.open, stepcursor.go). Each operator kind has one
// per-context implementation that both routes share.
//
// Plans are immutable and shared: all mutable evaluation state lives in
// evalState, and per-document bindings are revalidated by document
// pointer at run time, so a plan built against one document evaluates
// correctly against any other (overlay documents created by
// analyze-string included) — it is merely fastest on the layout it was
// planned for. Explain runs a plan with per-operator cardinality
// counters and renders the full operator tree.
//
// Physical choice among those operators is cost-based (estimate.go):
// the planner estimates per-operator cardinality from the planned
// document's path synopses, prices chain-scan against level-by-level
// stepping, orders position-independent infallible predicates by
// estimated selectivity, and orders independent quantifier/FLWOR
// bindings by estimated input size. Every reorder is gated so the plan
// stays result- and error-identical to the canonical order; estimates
// annotate the explain tree (ExplainOp.EstRows) next to observed rows.

// Plan-forcing knobs for the differential test harness: forcePlan
// overrides the chain-scan/index-scan choice ("" cost-based, "chain"
// always chain when shape-eligible, "nochain" never chain, "noindex"
// neither chain nor index scans), forceNoReorder disables every
// cost-based reorder. Package-private and test-only: production code
// never sets them, and plans are cached per query, so tests compile a
// fresh Query per setting.
var (
	forcePlan      = ""
	forceNoReorder = false
)

// ---- plan structure --------------------------------------------------------

// Plan is a query lowered to physical operators for one document
// hierarchy signature. A Plan is immutable and safe for concurrent
// evaluation.
type Plan struct {
	q    *Query
	doc  *core.Document
	sig  string
	prog pnode
	nOps int
	root *explainNode
	// strictOnly forces materialized (interpreter-order) evaluation:
	// set for queries containing analyze-string, whose overlay side
	// effects make deferred evaluation observable (lower.go).
	strictOnly bool
}

// Query returns the compiled query this plan lowers.
func (pl *Plan) Query() *Query { return pl.q }

// Signature returns the document hierarchy signature the plan was built
// for.
func (pl *Plan) Signature() string { return pl.sig }

// Operator kinds.
const (
	opAxisStep  = iota // generic pipeline step (evalStep, axisSegment)
	opIndexScan        // structural name index scan
	opChainScan        // leading child:: chain via index + ancestor check
	opPrimStep         // primary-expression step (evalPrimStep)
)

// pathOp is one physical operator of a path plan. Its step is a plan
// copy of the AST step whose predicates and primary expression are
// themselves lowered pnodes, so predicate evaluation inside the
// operator runs through the physical engine too.
type pathOp struct {
	kind     int
	s        *step   // axis/index/primary operator: the lowered step
	chn      []*step // chain-scan: the consumed child:: steps
	id       int     // cardinality counter slot
	primLast bool    // primary step: last op of its path
	// parallel marks the operator eligible for morsel-driven execution
	// (parallel.go): index scans whose predicates are provably
	// position-independent and never numeric, and chain scans (their
	// per-candidate ancestor check is position-independent by
	// construction). Order-observable shapes — positional shortcuts,
	// strict-only plans — are never marked.
	parallel bool

	// Plan-time bindings for the planned document; revalidated by
	// document pointer at run time.
	bind      indexBinding
	chainBind chainBinding
}

// indexBinding is a node test resolved against one document at plan
// time: the interned name symbol and the hierarchy restriction as
// sorted, deduplicated indices.
type indexBinding struct {
	doc     *core.Document
	nameSym int32
	hierIdx []int
	hierErr error
}

// resolveIndexBinding binds a name-test step to d. The unknown-
// hierarchy error is recorded, not raised: the reference evaluator
// raises it only when a candidate actually reaches the hierarchy check.
func resolveIndexBinding(d *core.Document, s *step) indexBinding {
	b := indexBinding{doc: d, nameSym: d.NameSymOf(s.test.name)}
	for _, name := range s.test.hiers {
		h := d.HierarchyByName(name)
		if h == nil {
			// Candidates are then gathered from every hierarchy, to
			// decide whether the error surfaces (indexCandidates).
			b.hierErr = errf("MHXQ0001", "unknown hierarchy %q in node test", name)
			b.hierIdx = nil
			return b
		}
		b.hierIdx = append(b.hierIdx, h.Index)
	}
	if len(b.hierIdx) > 1 {
		// Scan runs in index order (document order) and only once each.
		sort.Ints(b.hierIdx)
		w := 1
		for _, hi := range b.hierIdx[1:] {
			if hi != b.hierIdx[w-1] {
				b.hierIdx[w] = hi
				w++
			}
		}
		b.hierIdx = b.hierIdx[:w]
	}
	return b
}

func (b *indexBinding) allows(hierIndex int) bool {
	if len(b.hierIdx) == 0 {
		return true
	}
	for _, hi := range b.hierIdx {
		if hi == hierIndex {
			return true
		}
	}
	return false
}

// chainBinding is a child:: chain resolved against one document: the
// interned symbol of every chain name. ok is false when any name occurs
// nowhere in the document (the chain selects nothing).
type chainBinding struct {
	doc  *core.Document
	syms []int32
	ok   bool
}

func resolveChainBinding(d *core.Document, chain []*step) chainBinding {
	b := chainBinding{doc: d, syms: make([]int32, len(chain)), ok: true}
	for i, s := range chain {
		if b.syms[i] = d.NameSymOf(s.test.name); b.syms[i] == 0 {
			b.ok = false
		}
	}
	return b
}

// ---- planner ---------------------------------------------------------------

type planner struct {
	pl  *Plan
	est *estimator
	// orderFree is set while lowering a FLWOR that feeds an
	// order-insensitive consumer (exists/empty/count); it licenses
	// for-binding reorder inside that FLWOR only.
	orderFree bool
}

// newPlan lowers q's whole expression tree against d's hierarchy
// layout.
func newPlan(q *Query, d *core.Document) *Plan {
	pl := &Plan{q: q, doc: d, sig: d.Signature(), strictOnly: q.strictOnly}
	pn := &planner{pl: pl}
	root := &explainNode{op: "query", id: -1, est: -1}
	pl.prog = pn.lower(q.body, root)
	pl.root = root
	return pl
}

// estimate returns the planner's cardinality estimator, built once per
// plan from the planned document's path synopses.
func (pn *planner) estimate() *estimator {
	if pn.est == nil {
		pn.est = newEstimator(pn.pl.doc)
	}
	return pn.est
}

func (pn *planner) newOpID() int {
	id := pn.pl.nOps
	pn.pl.nOps++
	return id
}

// enode creates an explain-tree node under parent and the pbase that
// ties a pnode to its cardinality slot.
func (pn *planner) enode(parent *explainNode, op, detail string) (*explainNode, pbase) {
	id := pn.newOpID()
	en := &explainNode{op: op, detail: detail, id: id, est: -1}
	parent.kids = append(parent.kids, en)
	return en, pbase{id: id}
}

// group creates a structural explain node (no cardinality slot of its
// own) under parent.
func (pn *planner) group(parent *explainNode, op, detail string) *explainNode {
	en := &explainNode{op: op, detail: detail, id: -1, est: -1}
	parent.kids = append(parent.kids, en)
	return en
}

// lower translates one AST expression into its physical operator,
// recording the operator (and its lowered children) in the explain
// tree.
func (pn *planner) lower(e expr, parent *explainNode) pnode {
	switch x := e.(type) {
	case *literalExpr:
		_, pb := pn.enode(parent, "literal", describeLiteral(x.v))
		return &pLiteral{pbase: pb, v: x.v, seq: x.seq}
	case *rawTextExpr:
		return &pRawText{pbase: pbase{id: -1}, s: x.s}
	case *varExpr:
		_, pb := pn.enode(parent, "var", "$"+x.name)
		return &pVar{pbase: pb, name: x.name}
	case *contextItemExpr:
		_, pb := pn.enode(parent, "context-item", ".")
		return &pContextItem{pbase: pb}
	case *rootExpr:
		_, pb := pn.enode(parent, "root", "/")
		return &pRoot{pbase: pb}
	case *seqExpr:
		en, pb := pn.enode(parent, "sequence", "")
		items := make([]pnode, len(x.items))
		for i, it := range x.items {
			items[i] = pn.lower(it, en)
		}
		return &pSeq{pbase: pb, items: items}
	case *rangeExpr:
		en, pb := pn.enode(parent, "range", "to")
		return &pRange{pbase: pb, lo: pn.lower(x.lo, en), hi: pn.lower(x.hi, en)}
	case *orExpr:
		en, pb := pn.enode(parent, "or", "")
		return &pOr{pbase: pb, a: pn.lower(x.a, en), b: pn.lower(x.b, en)}
	case *andExpr:
		en, pb := pn.enode(parent, "and", "")
		return &pAnd{pbase: pb, a: pn.lower(x.a, en), b: pn.lower(x.b, en)}
	case *cmpExpr:
		en, pb := pn.enode(parent, "compare", x.op)
		return &pCmp{pbase: pb, op: x.op, kind: x.kind, a: pn.lower(x.a, en), b: pn.lower(x.b, en)}
	case *arithExpr:
		en, pb := pn.enode(parent, "arith", x.op)
		return &pArith{pbase: pb, op: x.op, a: pn.lower(x.a, en), b: pn.lower(x.b, en)}
	case *unaryExpr:
		en, pb := pn.enode(parent, "unary", "-")
		return &pUnary{pbase: pb, x: pn.lower(x.x, en)}
	case *unionExpr:
		en, pb := pn.enode(parent, "union", "|")
		return &pUnion{pbase: pb, a: pn.lower(x.a, en), b: pn.lower(x.b, en)}
	case *intersectExpr:
		op := "intersect"
		if x.except {
			op = "except"
		}
		en, pb := pn.enode(parent, op, "")
		return &pIntersect{pbase: pb, except: x.except, a: pn.lower(x.a, en), b: pn.lower(x.b, en)}
	case *ifExpr:
		en, pb := pn.enode(parent, "if", "")
		return &pIf{
			pbase: pb,
			cond:  pn.lower(x.cond, pn.group(en, "condition", "")),
			then:  pn.lower(x.then, pn.group(en, "then", "")),
			els:   pn.lower(x.els, pn.group(en, "else", "")),
		}
	case *quantExpr:
		kw := "some"
		if x.every {
			kw = "every"
		}
		names, srcs := pn.quantOrder(x)
		en, pb := pn.enode(parent, "quantified", kw+" $"+strings.Join(names, ", $"))
		q := &pQuant{pbase: pb, every: x.every, names: names}
		for _, s := range srcs {
			q.srcs = append(q.srcs, pn.lower(s, en))
		}
		q.sat = pn.lower(x.sat, pn.group(en, "satisfies", ""))
		return q
	case *flworExpr:
		of := pn.orderFree
		pn.orderFree = false
		return pn.lowerFLWOR(x, parent, of)
	case *callExpr:
		en, pb := pn.enode(parent, "call", x.name+"()")
		call := &pCall{pbase: pb, name: x.name, fn: x.fn}
		for _, a := range x.args {
			// A FLWOR feeding exists/empty/count is consumed
			// order-insensitively: license for-binding reorder inside it.
			if len(x.args) == 1 && (x.fn == bExists || x.fn == bEmpty || x.fn == bCount) {
				if _, isFLWOR := a.(*flworExpr); isFLWOR {
					pn.orderFree = true
				}
			}
			call.args = append(call.args, pn.lower(a, en))
		}
		return call
	case *filterExpr:
		en, pb := pn.enode(parent, "filter", strings.Repeat("[…]", len(x.preds)))
		f := &pFilter{pbase: pb, base: pn.lower(x.base, en)}
		for _, pr := range x.preds {
			f.preds = append(f.preds, pn.lower(pr, pn.group(en, "predicate", "")))
			f.sized = append(f.sized, usesLast(pr))
		}
		return f
	case *pathExpr:
		return pn.lowerPath(x, parent)
	case *elemExpr:
		en, pb := pn.enode(parent, "element", "<"+x.name+">")
		pe := &pElem{pbase: pb, name: x.name}
		for _, a := range x.attrs {
			tpl := attrTpl{name: a.name}
			for _, part := range a.parts {
				tpl.parts = append(tpl.parts, pn.lower(part, en))
			}
			pe.attrs = append(pe.attrs, tpl)
		}
		for _, ce := range x.content {
			pe.content = append(pe.content, pn.lower(ce, en))
		}
		return pe
	case *compCtorExpr:
		en, pb := pn.enode(parent, "constructor", string(x.kind)+" "+x.name)
		cc := &pCompCtor{pbase: pb, kind: x.kind, name: x.name}
		if x.nameExpr != nil {
			cc.nameExpr = pn.lower(x.nameExpr, en)
		}
		if x.content != nil {
			cc.content = pn.lower(x.content, en)
		}
		return cc
	}
	// Unreachable: the parser produces only the kinds above. A literal
	// empty sequence keeps the engine total.
	_, pb := pn.enode(parent, "unknown", "")
	return &pLiteral{pbase: pb, seq: Seq{}}
}

// quantOrder returns the quantifier's binding lists, reordered
// ascending by estimated source cardinality when that is provably
// unobservable: every source must be independently evaluable (no
// references to the quantifier's own variables), both sources and the
// satisfies clause must be infallible (so no error order can diverge),
// and every source must be estimable. The tuple set is then a cartesian
// product whose quantified truth is order-insensitive; putting the
// smallest source outermost minimizes inner re-evaluations.
func (pn *planner) quantOrder(x *quantExpr) ([]string, []expr) {
	if forceNoReorder || len(x.srcs) < 2 || !predInfallible(x.sat) {
		return x.names, x.srcs
	}
	bound := make(map[string]bool, len(x.names))
	for _, n := range x.names {
		bound[n] = true
	}
	est := pn.estimate()
	rows := make([]float64, len(x.srcs))
	for i, s := range x.srcs {
		if !predInfallible(s) || referencesVars(s, bound) {
			return x.names, x.srcs
		}
		r, ok := est.exprRows(s)
		if !ok {
			return x.names, x.srcs
		}
		rows[i] = r
	}
	idx := make([]int, len(x.srcs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rows[idx[a]] < rows[idx[b]] })
	names := make([]string, len(idx))
	srcs := make([]expr, len(idx))
	for i, j := range idx {
		names[i], srcs[i] = x.names[j], x.srcs[j]
	}
	return names, srcs
}

// flworClauseOrder returns the FLWOR's clause list with the leading run
// of for-clauses reordered ascending by estimated source cardinality.
// Licensed only when the whole FLWOR feeds an order-insensitive
// consumer (orderFree), carries no order-by, the run's clauses bind no
// position variables, the run's sources are independent (reference no
// name bound by any clause), and every source downstream plus the
// return clause is infallible — so neither the result set nor any error
// can observe the changed tuple enumeration order.
func (pn *planner) flworClauseOrder(x *flworExpr, orderFree bool) []flworClause {
	if !orderFree || forceNoReorder || len(x.order) > 0 {
		return x.clauses
	}
	run := 0
	for run < len(x.clauses) && x.clauses[run].kind == clauseFor && x.clauses[run].posName == "" {
		run++
	}
	if run < 2 {
		return x.clauses
	}
	bound := make(map[string]bool, len(x.clauses))
	for _, cl := range x.clauses {
		if cl.name != "" {
			bound[cl.name] = true
		}
		if cl.posName != "" {
			bound[cl.posName] = true
		}
	}
	est := pn.estimate()
	rows := make([]float64, run)
	for i := 0; i < run; i++ {
		src := x.clauses[i].src
		if !predInfallible(src) || referencesVars(src, bound) {
			return x.clauses
		}
		r, ok := est.exprRows(src)
		if !ok {
			return x.clauses
		}
		rows[i] = r
	}
	for _, cl := range x.clauses[run:] {
		if !predInfallible(cl.src) {
			return x.clauses
		}
	}
	if !predInfallible(x.ret) {
		return x.clauses
	}
	idx := make([]int, run)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rows[idx[a]] < rows[idx[b]] })
	out := make([]flworClause, len(x.clauses))
	for i, j := range idx {
		out[i] = x.clauses[j]
	}
	copy(out[run:], x.clauses[run:])
	return out
}

func (pn *planner) lowerFLWOR(x *flworExpr, parent *explainNode, orderFree bool) pnode {
	en, pb := pn.enode(parent, "flwor", "")
	f := &pFLWOR{pbase: pb}
	for _, cl := range pn.flworClauseOrder(x, orderFree) {
		var g *explainNode
		switch cl.kind {
		case clauseFor:
			detail := "$" + cl.name
			if cl.posName != "" {
				detail += " at $" + cl.posName
			}
			g = pn.group(en, "for", detail)
		case clauseLet:
			g = pn.group(en, "let", "$"+cl.name)
		default:
			g = pn.group(en, "where", "")
		}
		f.clauses = append(f.clauses, pClause{
			kind:    cl.kind,
			name:    cl.name,
			posName: cl.posName,
			src:     pn.lower(cl.src, g),
		})
	}
	for _, o := range x.order {
		detail := "ascending"
		if o.descending {
			detail = "descending"
		}
		g := pn.group(en, "order-by", detail)
		f.order = append(f.order, pOrderSpec{
			key:           pn.lower(o.key, g),
			descending:    o.descending,
			emptyGreatest: o.emptyGreatest,
			spec:          orderSpec{descending: o.descending, emptyGreatest: o.emptyGreatest},
		})
	}
	f.ret = pn.lower(x.ret, pn.group(en, "return", ""))
	return f
}

// indexableStep reports whether the step can run as an index scan: a
// descendant(-or-self) axis step with a plain name test. Predicates are
// allowed (they filter index candidates exactly as they filter axis
// candidates).
func indexableStep(s *step) bool {
	return s.prim == nil && s.test.kind == testName &&
		(s.axis == core.AxisDescendant || s.axis == core.AxisDescendantOrSelf)
}

// chainableStep reports whether the step can join a leading child::
// chain: child axis, plain unqualified name test, no predicates.
func chainableStep(s *step) bool {
	return s.prim == nil && s.axis == core.AxisChild && s.test.kind == testName &&
		len(s.test.hiers) == 0 && len(s.preds) == 0
}

// fusibleDOS reports whether the step is the bare descendant-or-self::
// node() that the // abbreviation expands to, with nothing attached.
func fusibleDOS(s *step) bool {
	return s.prim == nil && s.axis == core.AxisDescendantOrSelf &&
		s.test.kind == testNode && len(s.test.hiers) == 0 && len(s.preds) == 0
}

// fusablePreds reports whether a child::name step's predicates survive
// the //name fusion: descendant-or-self::node()/child::name[p] equals
// descendant::name[p] only when p is position-independent — predicate
// positions are per parent before fusion and per subtree after. A
// predicate is fusable when it cannot select by position: it never
// evaluates to a single number (predNeverNumeric) and never consults
// position()/last() in the step's own focus (usesFocusPosition).
func fusablePreds(preds []expr) bool {
	for _, pr := range preds {
		if !predNeverNumeric(pr) || usesFocusPosition(pr) {
			return false
		}
	}
	return true
}

// predNeverNumeric reports (conservatively) that the predicate's value
// can never be a single number: boolean connectives and comparisons,
// quantifiers, node-valued paths and the boolean builtins.
func predNeverNumeric(e expr) bool {
	switch x := e.(type) {
	case *orExpr, *andExpr, *cmpExpr, *quantExpr:
		return true
	case *pathExpr:
		// A path ending in an axis step yields nodes; a trailing
		// primary step could yield anything.
		return len(x.steps) > 0 && x.steps[len(x.steps)-1].prim == nil
	case *callExpr:
		switch x.fn {
		case bExists, bEmpty, bNot, bBoolean:
			return true
		}
	}
	return false
}

// usesFocusPosition reports whether e reads position() or last() in the
// focus it is evaluated in. Nested step and filter predicates rebind
// the focus, so their bodies do not count; everything else (function
// arguments, quantifier satisfies clauses, FLWOR bodies, operands)
// shares the outer focus.
func usesFocusPosition(e expr) bool {
	switch x := e.(type) {
	case *callExpr:
		if (x.name == "position" || x.name == "last") && len(x.args) == 0 {
			return true
		}
		for _, a := range x.args {
			if usesFocusPosition(a) {
				return true
			}
		}
		return false
	case *pathExpr:
		// Steps evaluate in their own focus; only the start expression
		// sees ours.
		return x.start != nil && usesFocusPosition(x.start)
	case *filterExpr:
		return usesFocusPosition(x.base)
	case *flworExpr:
		for _, cl := range x.clauses {
			if usesFocusPosition(cl.src) {
				return true
			}
		}
		for _, o := range x.order {
			if usesFocusPosition(o.key) {
				return true
			}
		}
		return usesFocusPosition(x.ret)
	case *quantExpr:
		for _, s := range x.srcs {
			if usesFocusPosition(s) {
				return true
			}
		}
		return usesFocusPosition(x.sat)
	}
	found := false
	visitChildren(e, func(ch expr) {
		if !found && usesFocusPosition(ch) {
			found = true
		}
	})
	return found
}

// useChainScan decides chain-scan versus level-by-level stepping for a
// leading child chain, by estimated cost. The chain-scan touches every
// document-wide instance of the chain's last name; the axis route
// touches the children of every node actually on the chain prefix. The
// chain-scan keeps its historical edge except when the synopsis proves
// the last name globally common but the prefix selective; without a
// synopsis the historical default (chain) stands.
func (pn *planner) useChainScan(chain []*step) bool {
	switch forcePlan {
	case "chain":
		return true
	case "nochain", "noindex":
		return false
	}
	axisCost, chainCost, ok := pn.estimate().chainCosts(chain)
	return !ok || chainCost <= 3*axisCost+64
}

// orderPreds returns the step's predicates ordered ascending by
// estimated selectivity, so the cheapest-to-fail filter runs first.
// Licensed only when reordering is provably unobservable: no positional
// shortcut consumes preds[0], every predicate is position-independent
// (the fusablePreds criterion — predicate order changes each
// predicate's input positions) and infallible (so no error order can
// diverge). The AST slice is never mutated; callers get a copy.
func (pn *planner) orderPreds(ctx estCtx, s *step) []expr {
	if forceNoReorder || len(s.preds) < 2 || s.posSel != 0 || !fusablePreds(s.preds) {
		return s.preds
	}
	for _, pr := range s.preds {
		if !predInfallible(pr) {
			return s.preds
		}
	}
	base := pn.estimate().stepBase(ctx, s)
	if !base.known {
		return s.preds
	}
	sels := make([]float64, len(s.preds))
	for i, pr := range s.preds {
		sels[i] = pn.estimate().predSel(base, pr)
	}
	idx := make([]int, len(s.preds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sels[idx[a]] < sels[idx[b]] })
	out := make([]expr, len(idx))
	for i, j := range idx {
		out[i] = s.preds[j]
	}
	return out
}

func (pn *planner) lowerPath(p *pathExpr, parent *explainNode) pnode {
	node, pb := pn.enode(parent, "path", describePath(p))
	pp := &pPath{pbase: pb, absolute: p.absolute}
	est := pn.estimate()
	// ctx is the estimated context flowing between operators; only an
	// absolute path from the shared root starts known.
	ctx := estUnknown
	if p.start != nil {
		pp.start = pn.lower(p.start, node)
	} else if p.absolute {
		ctx = est.rootCtx()
	}
	steps := p.steps
	i := 0
	// A leading chain of child::name steps over an absolute path. A
	// single child step stays on the (already cheap) axis pipeline.
	if p.absolute && p.start == nil {
		k := 0
		for k < len(steps) && chainableStep(steps[k]) {
			k++
		}
		if k >= 2 && pn.useChainScan(steps[:k]) {
			op := &pathOp{kind: opChainScan, chn: steps[:k], id: pn.newOpID()}
			op.parallel = !pn.pl.strictOnly
			op.chainBind = resolveChainBinding(pn.pl.doc, op.chn)
			ctx = est.chainEst(op.chn)
			node.kids = append(node.kids, &explainNode{
				op: "chain-scan", detail: describeChain(op.chn), index: true,
				parallel: op.parallel, id: op.id, est: ctx.estInt(),
			})
			pp.ops = append(pp.ops, op)
			i = k
		}
	}
	for ; i < len(steps); i++ {
		s := steps[i]
		// Fuse the // abbreviation (descendant-or-self::node()/
		// child::name) into one descendant::name index scan: the two
		// select the same node set in the same document order. The
		// child step's predicates ride along when they are provably
		// position-independent (positions are per parent before the
		// fusion and per subtree after it).
		if fusibleDOS(s) && i+1 < len(steps) {
			next := steps[i+1]
			if next.prim == nil && next.axis == core.AxisChild &&
				next.test.kind == testName && fusablePreds(next.preds) {
				s = &step{axis: core.AxisDescendant, test: next.test, preds: next.preds}
				i++
			}
		}
		var op *pathOp
		var en *explainNode
		switch {
		case s.prim != nil:
			op = &pathOp{kind: opPrimStep, id: pn.newOpID()}
			en = &explainNode{op: "primary", detail: "expr()", id: op.id, est: -1}
			node.kids = append(node.kids, en)
			op.s = &step{axis: s.axis, test: s.test, posSel: s.posSel, prim: pn.lower(s.prim, en)}
			pp.ops = append(pp.ops, op)
			ctx = estUnknown
			continue
		case indexableStep(s) && forcePlan != "noindex":
			op = &pathOp{kind: opIndexScan, id: pn.newOpID()}
			// Eligible for morsel-parallel predicate filtering when every
			// predicate is provably position-independent (the fusablePreds
			// criterion, applied to the AST predicates) and no positional
			// shortcut reorders the work. Without predicates there is no
			// per-candidate work worth parallelizing.
			op.parallel = !pn.pl.strictOnly && s.posSel == 0 &&
				len(s.preds) > 0 && fusablePreds(s.preds)
			op.bind = resolveIndexBinding(pn.pl.doc, s)
			en = &explainNode{op: "index-scan", detail: describeStep(s), index: true,
				parallel: op.parallel, id: op.id, est: -1}
		default:
			op = &pathOp{kind: opAxisStep, id: pn.newOpID()}
			en = &explainNode{op: "axis-step", detail: describeStep(s), id: op.id, est: -1}
		}
		node.kids = append(node.kids, en)
		preds := pn.orderPreds(ctx, s)
		ctx = est.estStep(ctx, s)
		en.est = ctx.estInt()
		// Plan copy of the step: the same axis/test/positional shortcut,
		// with predicates lowered into the physical engine.
		cs := &step{axis: s.axis, test: s.test, posSel: s.posSel}
		for _, pr := range preds {
			cs.preds = append(cs.preds, pn.lower(pr, en))
		}
		op.s = cs
		pp.ops = append(pp.ops, op)
	}
	node.est = ctx.estInt()
	for oi, op := range pp.ops {
		if op.kind == opPrimStep {
			op.primLast = oi == len(pp.ops)-1
		}
	}
	return pp
}

// visitChildren invokes visit for every direct child expression of e.
// For path expressions this includes the start expression, every step
// predicate and every primary step body.
func visitChildren(e expr, visit func(expr)) {
	switch x := e.(type) {
	case *seqExpr:
		for _, it := range x.items {
			visit(it)
		}
	case *rangeExpr:
		visit(x.lo)
		visit(x.hi)
	case *orExpr:
		visit(x.a)
		visit(x.b)
	case *andExpr:
		visit(x.a)
		visit(x.b)
	case *cmpExpr:
		visit(x.a)
		visit(x.b)
	case *arithExpr:
		visit(x.a)
		visit(x.b)
	case *unaryExpr:
		visit(x.x)
	case *unionExpr:
		visit(x.a)
		visit(x.b)
	case *intersectExpr:
		visit(x.a)
		visit(x.b)
	case *ifExpr:
		visit(x.cond)
		visit(x.then)
		visit(x.els)
	case *quantExpr:
		for _, s := range x.srcs {
			visit(s)
		}
		visit(x.sat)
	case *flworExpr:
		for _, cl := range x.clauses {
			visit(cl.src)
		}
		for _, o := range x.order {
			visit(o.key)
		}
		visit(x.ret)
	case *callExpr:
		for _, a := range x.args {
			visit(a)
		}
	case *filterExpr:
		visit(x.base)
		for _, pr := range x.preds {
			visit(pr)
		}
	case *pathExpr:
		if x.start != nil {
			visit(x.start)
		}
		for _, s := range x.steps {
			for _, pr := range s.preds {
				visit(pr)
			}
			if s.prim != nil {
				visit(s.prim)
			}
		}
	case *elemExpr:
		for _, a := range x.attrs {
			for _, part := range a.parts {
				visit(part)
			}
		}
		for _, ce := range x.content {
			visit(ce)
		}
	case *compCtorExpr:
		if x.nameExpr != nil {
			visit(x.nameExpr)
		}
		if x.content != nil {
			visit(x.content)
		}
	}
}

// ---- path execution --------------------------------------------------------

// opCard is one operator's observed cardinalities during an
// instrumented (Explain) evaluation. nanos accrues observed wall time
// only under EXPLAIN ANALYZE (evalState.timed); it is inclusive — an
// operator's time contains the time of the operators it pulled from —
// matching the convention of PostgreSQL's "actual time".
type opCard struct {
	calls, in, out int64
	nanos          int64
	// Morsel-execution stats (parallel.go): morsels dispatched by this
	// operator and candidate rows examined per worker slot (slot 0 is
	// the evaluating goroutine). Zero/nil when the operator ran serially.
	morsels    int64
	workerRows []int64
}

// pPath is the lowered path expression: the lowered start expression
// plus the operator list. Every operator but the last runs materialized
// (run); the last one streams under open (stepcursor.go) and
// materializes under eval.
type pPath struct {
	pbase
	absolute bool
	start    pnode
	ops      []*pathOp
}

func (p *pPath) eval(c *context) (Seq, error) { return p.run(c, len(p.ops)) }

// run evaluates the start expression and the first k operators, each
// over the materialized result of the one before it, with per-operator
// explain accounting.
func (p *pPath) run(c *context, k int) (Seq, error) {
	var cur Seq
	switch {
	case p.start != nil:
		v, err := pEval(p.start, c)
		if err != nil {
			return nil, err
		}
		cur = v
	case p.absolute:
		cur = Seq{c.st.rootFor(c.item)}
	default:
		if c.item == nil {
			return nil, errf("XPDY0002", "context item undefined at start of relative path")
		}
		cur = Seq{c.item}
	}
	for _, op := range p.ops[:k] {
		in := int64(len(cur))
		var start time.Time
		if c.st.timed {
			start = time.Now()
		}
		var err error
		if cur, err = runOp(c, cur, op); err != nil {
			return nil, err
		}
		if ex := c.st.explain; ex != nil {
			ex[op.id].calls++
			ex[op.id].in += in
			ex[op.id].out += int64(len(cur))
			if c.st.timed {
				ex[op.id].nanos += int64(time.Since(start))
			}
		}
	}
	return cur, nil
}

// runOp evaluates one path operator over a materialized context list.
func runOp(c *context, cur Seq, op *pathOp) (Seq, error) {
	switch op.kind {
	case opPrimStep:
		return evalPrimStep(c, cur, op.s, op.primLast)
	case opIndexScan:
		return evalIndexScan(c, cur, op)
	case opChainScan:
		if root, ok := chainRoot(c, cur); ok {
			return drain(c, newChainCursor(c, op, root))
		}
		// Only the shared root reaches a leading chain of an absolute
		// path; be safe and evaluate stepwise otherwise.
		var err error
		for _, s := range op.chn {
			if cur, err = evalStep(c, cur, s); err != nil {
				return nil, err
			}
		}
		return cur, nil
	}
	return evalStep(c, cur, op.s)
}

// indexBind returns the operator's index binding for d: the plan-time
// one for the planned document, else *cache, re-resolved when it is for
// another document.
func (op *pathOp) indexBind(cache *indexBinding, d *core.Document) *indexBinding {
	if op.bind.doc == d {
		return &op.bind
	}
	if cache.doc != d {
		*cache = resolveIndexBinding(d, op.s)
	}
	return cache
}

// evalIndexScan evaluates a descendant(-or-self)::name step through the
// structural name index, one indexSegment per context node, merging the
// segments into document order when they interleave. Atomic items and
// constructed (unindexed) context nodes delegate the whole step to the
// axis pipeline, which reproduces the reference semantics for them.
func evalIndexScan(c *context, cur Seq, op *pathOp) (Seq, error) {
	st := c.st
	for _, it := range cur {
		n, ok := it.(*dom.Node)
		if !ok {
			return evalStep(c, cur, op.s) // raises XPTY0019 at the reference point
		}
		if n.Kind == dom.Attribute {
			continue // no descendants; indexable as an empty contribution
		}
		if _, ok := st.docFor(n).OrdinalOf(n); !ok {
			return evalStep(c, cur, op.s) // constructed tree: no index
		}
	}
	inclSelf := op.s.axis == core.AxisDescendantOrSelf
	var out Seq
	sorted := true
	var bind indexBinding
	for _, it := range cur {
		n := it.(*dom.Node)
		d := st.docFor(n)
		// st.runSeg is free for reuse: indexSegment consumes it before any
		// predicate (which may scan again) runs.
		if err := indexCandidates(op.indexBind(&bind, d), &st.runSeg, n, d, inclSelf); err != nil {
			return nil, err
		}
		segStart := len(out)
		var err error
		if out, err = indexSegment(c, op, &st.runSeg, out); err != nil {
			return nil, err
		}
		if sorted && segStart > 0 && len(out) > segStart &&
			dom.Compare(out[segStart-1].(*dom.Node), out[segStart].(*dom.Node)) >= 0 {
			sorted = false
		}
	}
	if !sorted {
		return st.mergeDocOrder(out), nil
	}
	return out, nil
}

// indexCandidates loads context n's index-scan candidates into rs in
// ascending document order: n itself when a descendant-or-self test
// matches it (the root belongs to every hierarchy), then the name's
// index runs restricted to n's subtree.
// Only the shared root and hierarchy elements have element
// descendants; other contexts contribute nothing to a name test.
func indexCandidates(bind *indexBinding, rs *runSegCursor, n *dom.Node, d *core.Document, inclSelf bool) error {
	rs.reset()
	if bind.nameSym == 0 {
		// The name occurs nowhere in this document: no candidate
		// matches, so not even an unknown-hierarchy error can surface
		// (the reference checks kind and name first).
		return nil
	}
	switch {
	case n == d.Root:
		if len(bind.hierIdx) > 0 {
			for _, hi := range bind.hierIdx {
				rs.rc.Add(d.Hiers[hi], d.Hiers[hi].NameRun(bind.nameSym))
			}
		} else {
			for _, h := range d.Hiers {
				rs.rc.Add(h, h.NameRun(bind.nameSym))
			}
		}
	case n.Kind == dom.Element && n.HierIndex >= 0 && n.HierIndex < len(d.Hiers):
		if !bind.allows(n.HierIndex) {
			return nil // descendants stay in the context's hierarchy
		}
		h := d.Hiers[n.HierIndex]
		rs.rc.Add(h, core.SubRun(h.NameRun(bind.nameSym), n.Ord, n.Last))
	default:
		return nil
	}
	if inclSelf && n.NameSym == bind.nameSym {
		rs.self = n
	}
	if bind.hierErr != nil && rs.total() > 0 {
		// Unknown hierarchy in the test: the reference raises the error
		// only when a kind+name candidate reaches the hierarchy check.
		return bind.hierErr
	}
	return nil
}

// indexSegment appends the segment whose candidates rs holds to out:
// the positional shortcut, then the remaining predicates (morsel-
// parallel when worthwhile). It is the per-context index-scan
// implementation of both routes; rs is consumed before any predicate
// runs.
func indexSegment(c *context, op *pathOp, rs *runSegCursor, out Seq) (Seq, error) {
	s := op.s
	segStart := len(out)
	preds := s.preds
	if s.posSel != 0 {
		// Run-level positional shortcut: [k]/[last()] index directly
		// into the runs, O(1) instead of O(matches).
		k := s.posSel - 1
		if s.posSel < 0 {
			k = rs.total() - 1
		}
		if k < 0 || k >= rs.total() {
			return out, nil
		}
		out = append(out, rs.at(k))
		preds = preds[1:]
	} else {
		out = rs.appendTo(out)
	}
	if len(preds) == 0 {
		return out, nil
	}
	seg := out[segStart:]
	var err error
	if parWorthwhile(c.st, op, len(seg)) {
		seg, err = parFilterPreds(c, seg, preds, 0, len(seg), op.id)
	} else {
		seg, err = applyPredicatesInPlace(c, seg, preds)
	}
	if err != nil {
		return nil, err
	}
	return out[:segStart+len(seg)], nil
}

// chainAncestorsMatch verifies one chain-scan candidate: its ancestor
// names must match the chain bottom-up, ending exactly at the shared
// root.
func chainAncestorsMatch(d *core.Document, m *dom.Node, syms []int32) bool {
	q := m.Parent
	for i := len(syms) - 2; i >= 0; i-- {
		if q == nil || q == d.Root || q.Kind != dom.Element || q.NameSym != syms[i] {
			return false
		}
		q = q.Parent
	}
	return q == d.Root
}

// ---- EXPLAIN ---------------------------------------------------------------

// ExplainOp is one node of the operator tree Explain returns: the
// physical operator, its rendered detail, whether it is index-backed,
// and the cardinalities observed during the instrumented evaluation
// (Calls invocations consuming InRows context items and emitting
// OutRows result items in total). The tree covers the whole lowered
// query — FLWOR clauses, predicates, function calls — not only paths.
type ExplainOp struct {
	Op      string `json:"op"`
	Detail  string `json:"detail,omitempty"`
	Index   bool   `json:"index"`
	Calls   int64  `json:"calls,omitempty"`
	InRows  int64  `json:"in_rows,omitempty"`
	OutRows int64  `json:"out_rows,omitempty"`
	// EstRows is the planner's synopsis-based output-cardinality
	// estimate (nil: the planner had no estimate for this operator),
	// fixed at plan time; text renderers print it as an "est=N" suffix.
	// Compare against OutRows from an instrumented run to judge estimate
	// accuracy.
	EstRows *int64 `json:"est_rows,omitempty"`
	// Nanos is the operator's observed wall time under EXPLAIN ANALYZE
	// (zero under plain EXPLAIN). Times are inclusive: an operator's
	// Nanos contains the time of the operators it pulled from. At the
	// root it is the total query wall time.
	Nanos int64 `json:"nanos,omitempty"`
	// Parallel marks operators the planner deemed eligible for
	// morsel-driven execution. When an instrumented evaluation actually
	// engaged it, Morsels counts the morsels dispatched, WorkerRows the
	// candidate rows examined per worker slot (slot 0 is the evaluating
	// goroutine) and Workers the slots that did any work; text renderers
	// print them as a "workers=N morsels=M" suffix. How many pool workers
	// join a morsel loop depends on timing, so these fields, not Detail,
	// carry them: Detail is the operator's static identity and is equal
	// across runs of one plan.
	Parallel   bool         `json:"parallel,omitempty"`
	Workers    int          `json:"workers,omitempty"`
	Morsels    int64        `json:"morsels,omitempty"`
	WorkerRows []int64      `json:"worker_rows,omitempty"`
	Children   []*ExplainOp `json:"children,omitempty"`
}

// explainNode is the plan-time skeleton of the operator tree; id indexes
// the cardinality counter slot (-1 for structural nodes) and est is the
// planner's estimated output cardinality (-1: no estimate).
type explainNode struct {
	op, detail string
	index      bool
	parallel   bool
	id         int
	est        int64
	kids       []*explainNode
}

// Describe renders the operator tree without cardinalities (no
// evaluation happens).
func (pl *Plan) Describe() *ExplainOp { return pl.render(nil) }

func (pl *Plan) render(counts []opCard) *ExplainOp { return renderExplain(pl.root, counts) }

func renderExplain(n *explainNode, counts []opCard) *ExplainOp {
	out := &ExplainOp{Op: n.op, Detail: n.detail, Index: n.index, Parallel: n.parallel}
	if n.est >= 0 {
		est := n.est
		out.EstRows = &est
	}
	if n.id >= 0 && n.id < len(counts) {
		cd := counts[n.id]
		out.Calls, out.InRows, out.OutRows = cd.calls, cd.in, cd.out
		out.Nanos = cd.nanos
		if cd.morsels > 0 {
			out.Morsels = cd.morsels
			for _, r := range cd.workerRows {
				if r > 0 {
					out.Workers++
				}
			}
			out.WorkerRows = append([]int64(nil), cd.workerRows...)
		}
	}
	for _, k := range n.kids {
		out.Children = append(out.Children, renderExplain(k, counts))
	}
	return out
}

func describeTest(t *nodeTest) string {
	qual := ""
	if len(t.hiers) > 0 {
		qual = "('" + strings.Join(t.hiers, ",") + "')"
	}
	switch t.kind {
	case testName:
		return t.name + qual
	case testStar:
		return "*" + qual
	case testText:
		return "text()" + qual
	case testNode:
		return "node()" + qual
	case testComment:
		return "comment()"
	case testPI:
		if t.name != "" {
			return "processing-instruction(" + t.name + ")"
		}
		return "processing-instruction()"
	case testLeaf:
		return "leaf()" + qual
	}
	return "?"
}

func describeStep(s *step) string {
	if s.prim != nil {
		return "expr()"
	}
	d := s.axis.String() + "::" + describeTest(&s.test)
	if n := len(s.preds); n > 0 {
		d += strings.Repeat("[…]", n)
	}
	return d
}

func describeChain(chain []*step) string {
	var b strings.Builder
	for _, s := range chain {
		b.WriteByte('/')
		b.WriteString("child::")
		b.WriteString(s.test.name)
	}
	return b.String()
}

func describePath(p *pathExpr) string {
	var b strings.Builder
	if p.start != nil {
		b.WriteString("(…)")
	}
	for i, s := range p.steps {
		if i > 0 || p.absolute || p.start != nil {
			b.WriteByte('/')
		}
		b.WriteString(describeStep(s))
	}
	return b.String()
}

// ---- plan cache ------------------------------------------------------------

// maxCachedPlans bounds the per-query plan cache; the distinct
// hierarchy signatures one query meets are few (the corpus layouts plus
// analyze-string overlay layouts).
const maxCachedPlans = 16

// planCache is the per-query plan table keyed by document hierarchy
// signature.
type planCache struct {
	mu    sync.RWMutex
	plans map[string]*Plan
}

func (pc *planCache) get(sig string) *Plan {
	pc.mu.RLock()
	pl := pc.plans[sig]
	pc.mu.RUnlock()
	return pl
}

func (pc *planCache) put(sig string, pl *Plan) *Plan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if prev, ok := pc.plans[sig]; ok {
		return prev // a concurrent planner won the race; share its plan
	}
	if pc.plans == nil {
		pc.plans = make(map[string]*Plan, 4)
	}
	if len(pc.plans) >= maxCachedPlans {
		clear(pc.plans)
	}
	pc.plans[sig] = pl
	return pl
}
