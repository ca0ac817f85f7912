package xquery

import (
	"math"
	"slices"
	"sort"
	"time"
)

// This file is the physical expression layer of the cursor engine.
// Every AST expression kind is lowered (plan.go) into a pnode — a
// physical operator that can evaluate strictly (eval, the expr
// interface) and stream its result through a pull cursor (open).
// Streaming is what makes early-exit queries O(answer): FLWOR bindings,
// quantifier sources, filter bases and function arguments are pulled
// item by item, so a consumer that needs one item ((//w)[1], exists,
// some $x in …) stops the whole upstream pipeline after one pull.
//
// Two invariants keep the two evaluation routes equivalent:
//
//   - a fully drained cursor yields exactly the strict result (the
//     differential suites enforce node identity against the AST
//     interpreter oracle in eval.go);
//   - queries containing analyze-string run in strict mode
//     (Plan.strictOnly): analyze-string advances the evaluation's
//     active document to an overlay with a finer leaf partition, so
//     deferring a sibling expression past an analyze-string call could
//     change what it sees. popen makes every child boundary materialize
//     on first pull in that mode, which restores the interpreter's
//     evaluation order exactly.

// pnode is a lowered physical expression: an expr (strict evaluation,
// so lowered predicates plug into the shared predicate machinery) that
// can also stream.
type pnode interface {
	expr
	open(c *context) cursor
	pid() int
}

// pbase carries the explain/cardinality slot shared by all pnodes.
type pbase struct{ id int }

func (b *pbase) pid() int { return b.id }

// popen opens a child pnode for streaming. In strict-only mode
// (analyze-string present) the child instead materializes completely on
// its first pull, preserving interpreter evaluation order. Explain
// accounting wraps either route.
func popen(n pnode, c *context) cursor {
	if pl := c.st.plan; pl != nil && pl.strictOnly {
		return counted(c.st, n.pid(), &lazyCursor{n: n, c: c})
	}
	return counted(c.st, n.pid(), n.open(c))
}

// pEval materializes a child pnode (strict evaluation with explain
// accounting).
func pEval(n pnode, c *context) (Seq, error) {
	if c.st.explain != nil && n.pid() >= 0 {
		c.st.explain[n.pid()].calls++
		var start time.Time
		if c.st.timed {
			start = time.Now()
		}
		s, err := n.eval(c)
		if c.st.timed {
			c.st.explain[n.pid()].nanos += int64(time.Since(start))
		}
		if err == nil {
			c.st.explain[n.pid()].out += int64(len(s))
		}
		return s, err
	}
	return n.eval(c)
}

// lazyCursor evaluates a pnode strictly on first pull and streams the
// materialized result.
type lazyCursor struct {
	n   pnode
	c   *context
	cur cursor
}

func (lc *lazyCursor) next() (Item, bool, error) {
	if lc.cur == nil {
		s, err := lc.n.eval(lc.c)
		if err != nil {
			lc.cur = errCur(err)
		} else {
			lc.cur = seqCur(s)
		}
	}
	return lc.cur.next()
}

// thunkCursor defers cursor construction to the first pull.
type thunkCursor struct {
	f   func() (cursor, error)
	cur cursor
}

func (tc *thunkCursor) next() (Item, bool, error) {
	if tc.cur == nil {
		cur, err := tc.f()
		if err != nil {
			cur = errCur(err)
		}
		tc.cur = cur
	}
	return tc.cur.next()
}

// scalarOpen is the open implementation of operators whose results are
// single items or tiny sequences: stream the strict result lazily.
func scalarOpen(n pnode, c *context) cursor { return &lazyCursor{n: n, c: c} }

// streamWorthy reports whether opening n as a cursor can actually
// short-circuit work: its producing end is an operator that emits
// lazily (FLWOR pipelines, filters, ranges, sequences, or a path whose
// last operator — the only one a path streams — is an index or chain
// scan or a downward axis step). For anything else the strict eval is
// both exact and cheaper than opening a cursor.
func streamWorthy(n pnode) bool {
	switch x := n.(type) {
	case *pFLWOR, *pFilter, *pRange, *pSeq:
		return true
	case *pPath:
		if len(x.ops) == 0 {
			return false
		}
		switch last := x.ops[len(x.ops)-1]; last.kind {
		case opIndexScan, opChainScan:
			return true
		case opAxisStep:
			return streamableStepAxis(last.s.axis)
		}
	}
	return false
}

// strictMode reports whether the evaluation runs in interpreter order
// (analyze-string present): streaming shortcuts then only add cursor
// overhead on top of the materialization popen forces anyway.
func strictMode(c *context) bool {
	pl := c.st.plan
	return pl != nil && pl.strictOnly
}

// pEbv computes the effective boolean value of a child. Operators that
// can produce large sequences lazily are consumed through their streams
// (two pulls decide the ebv); everything else evaluates directly,
// avoiding the cursor wrappers on the hot predicate/where paths.
func pEbv(n pnode, c *context) (bool, error) {
	if streamWorthy(n) && !strictMode(c) {
		return drainBool(popen(n, c))
	}
	v, err := pEval(n, c)
	if err != nil {
		return false, err
	}
	return ebv(v)
}

// ---- leaves ----------------------------------------------------------------

type pLiteral struct {
	pbase
	v   Item
	seq Seq
}

func (e *pLiteral) eval(*context) (Seq, error) { return e.seq, nil }
func (e *pLiteral) open(c *context) cursor     { return seqCur(e.seq) }

type pRawText struct {
	pbase
	s string
}

func (e *pRawText) eval(*context) (Seq, error) { return singleton(e.s), nil }
func (e *pRawText) open(c *context) cursor     { return scalarOpen(e, c) }

type pVar struct {
	pbase
	name string
}

func (e *pVar) eval(c *context) (Seq, error) {
	v, ok := c.lookup(e.name)
	if !ok {
		return nil, errf("XPST0008", "undefined variable $%s", e.name)
	}
	return v, nil
}
func (e *pVar) open(c *context) cursor { return scalarOpen(e, c) }

type pContextItem struct{ pbase }

func (e *pContextItem) eval(c *context) (Seq, error) {
	if c.item == nil {
		return nil, errf("XPDY0002", "context item is undefined")
	}
	return singleton(c.item), nil
}
func (e *pContextItem) open(c *context) cursor { return scalarOpen(e, c) }

type pRoot struct{ pbase }

func (e *pRoot) eval(c *context) (Seq, error) {
	return singleton(c.st.rootFor(c.item)), nil
}
func (e *pRoot) open(c *context) cursor { return scalarOpen(e, c) }

// ---- sequences -------------------------------------------------------------

type pSeq struct {
	pbase
	items []pnode
}

func (e *pSeq) eval(c *context) (Seq, error) {
	var out Seq
	for _, it := range e.items {
		v, err := pEval(it, c)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}
func (e *pSeq) open(c *context) cursor { return e.stream(c) }

func (e *pSeq) stream(c *context) cursor {
	return &concatCursor{open: func(i int) (cursor, bool) {
		if i >= len(e.items) {
			return nil, false
		}
		return popen(e.items[i], c), true
	}}
}

type pRange struct {
	pbase
	lo, hi pnode
}

func (e *pRange) eval(c *context) (Seq, error) {
	lo, empty, err := evalNumber(c, e.lo, "range")
	if err != nil || empty {
		return nil, err
	}
	hi, empty, err := evalNumber(c, e.hi, "range")
	if err != nil || empty {
		return nil, err
	}
	return rangeSeq(c, lo, hi)
}
func (e *pRange) open(c *context) cursor { return e.stream(c) }

func (e *pRange) stream(c *context) cursor {
	rc := &rangeCursor{}
	return &thunkCursor{f: func() (cursor, error) {
		lo, empty, err := evalNumber(c, e.lo, "range")
		if err != nil || empty {
			return emptyCur, err
		}
		hi, empty, err := evalNumber(c, e.hi, "range")
		if err != nil || empty {
			return emptyCur, err
		}
		if lo != math.Trunc(lo) || hi != math.Trunc(hi) {
			return nil, errf("FORG0006", "range bounds must be integers")
		}
		rc.v, rc.hi = lo, hi
		return rc, nil
	}}
}

type rangeCursor struct{ v, hi float64 }

func (rc *rangeCursor) next() (Item, bool, error) {
	if rc.v > rc.hi {
		return nil, false, nil
	}
	v := rc.v
	rc.v++
	return v, true, nil
}

// ---- boolean connectives ---------------------------------------------------

type pOr struct {
	pbase
	a, b pnode
}

func (e *pOr) eval(c *context) (Seq, error) {
	ba, err := pEbv(e.a, c)
	if err != nil {
		return nil, err
	}
	if ba {
		return seqTrue, nil
	}
	bb, err := pEbv(e.b, c)
	return singletonBool(bb), err
}
func (e *pOr) open(c *context) cursor { return scalarOpen(e, c) }

type pAnd struct {
	pbase
	a, b pnode
}

func (e *pAnd) eval(c *context) (Seq, error) {
	ba, err := pEbv(e.a, c)
	if err != nil {
		return nil, err
	}
	if !ba {
		return seqFalse, nil
	}
	bb, err := pEbv(e.b, c)
	return singletonBool(bb), err
}
func (e *pAnd) open(c *context) cursor { return scalarOpen(e, c) }

// ---- comparisons and arithmetic --------------------------------------------

type pCmp struct {
	pbase
	op   string
	kind cmpKind
	a, b pnode
}

func (e *pCmp) eval(c *context) (Seq, error) {
	va, err := pEval(e.a, c)
	if err != nil {
		return nil, err
	}
	vb, err := pEval(e.b, c)
	if err != nil {
		return nil, err
	}
	return evalCmp(c, e.op, e.kind, va, vb)
}
func (e *pCmp) open(c *context) cursor { return scalarOpen(e, c) }

type pArith struct {
	pbase
	op   string
	a, b pnode
}

func (e *pArith) eval(c *context) (Seq, error) {
	x, empty, err := evalNumber(c, e.a, "arithmetic")
	if err != nil || empty {
		return nil, err
	}
	y, empty, err := evalNumber(c, e.b, "arithmetic")
	if err != nil || empty {
		return nil, err
	}
	return evalArith(e.op, x, y)
}
func (e *pArith) open(c *context) cursor { return scalarOpen(e, c) }

type pUnary struct {
	pbase
	x pnode
}

func (e *pUnary) eval(c *context) (Seq, error) {
	x, empty, err := evalNumber(c, e.x, "unary minus")
	if err != nil || empty {
		return nil, err
	}
	return singleton(-x), nil
}
func (e *pUnary) open(c *context) cursor { return scalarOpen(e, c) }

// ---- node-set operators ----------------------------------------------------

type pUnion struct {
	pbase
	a, b pnode
}

func (e *pUnion) eval(c *context) (Seq, error) {
	va, err := pEval(e.a, c)
	if err != nil {
		return nil, err
	}
	vb, err := pEval(e.b, c)
	if err != nil {
		return nil, err
	}
	return evalUnion(va, vb)
}
func (e *pUnion) open(c *context) cursor { return scalarOpen(e, c) }

type pIntersect struct {
	pbase
	except bool
	a, b   pnode
}

func (e *pIntersect) eval(c *context) (Seq, error) {
	va, err := pEval(e.a, c)
	if err != nil {
		return nil, err
	}
	vb, err := pEval(e.b, c)
	if err != nil {
		return nil, err
	}
	return evalIntersect(va, vb, e.except)
}
func (e *pIntersect) open(c *context) cursor { return scalarOpen(e, c) }

// ---- control flow ----------------------------------------------------------

type pIf struct {
	pbase
	cond, then, els pnode
}

func (e *pIf) eval(c *context) (Seq, error) {
	b, err := pEbv(e.cond, c)
	if err != nil {
		return nil, err
	}
	if b {
		return pEval(e.then, c)
	}
	return pEval(e.els, c)
}

func (e *pIf) open(c *context) cursor {
	return &thunkCursor{f: func() (cursor, error) {
		b, err := pEbv(e.cond, c)
		if err != nil {
			return nil, err
		}
		if b {
			return popen(e.then, c), nil
		}
		return popen(e.els, c), nil
	}}
}

type pQuant struct {
	pbase
	every bool
	names []string
	srcs  []pnode
	sat   pnode
}

func (e *pQuant) eval(c *context) (Seq, error) {
	b, err := e.truth(c, 0)
	if err != nil {
		return nil, err
	}
	return singletonBool(b), nil
}
func (e *pQuant) open(c *context) cursor { return scalarOpen(e, c) }

// truth walks the quantifier bindings with streaming sources: "some"
// stops at the first satisfying tuple, "every" at the first failing
// one, so the source pipelines are pulled no further than the answer
// requires.
func (e *pQuant) truth(c *context, i int) (bool, error) {
	if i == len(e.names) {
		return pEbv(e.sat, c)
	}
	if !streamWorthy(e.srcs[i]) || strictMode(c) {
		v, err := pEval(e.srcs[i], c)
		if err != nil {
			return false, err
		}
		for _, it := range v {
			b, err := e.truth(c.bind(e.names[i], singleton(it)), i+1)
			if err != nil {
				return false, err
			}
			if e.every && !b {
				return false, nil
			}
			if !e.every && b {
				return true, nil
			}
		}
		return e.every, nil
	}
	src := popen(e.srcs[i], c)
	for {
		if err := c.st.checkCancel(); err != nil {
			return false, err
		}
		it, ok, err := src.next()
		if err != nil {
			return false, err
		}
		if !ok {
			return e.every, nil
		}
		b, err := e.truth(c.bind(e.names[i], singleton(it)), i+1)
		if err != nil {
			return false, err
		}
		if e.every && !b {
			return false, nil
		}
		if !e.every && b {
			return true, nil
		}
	}
}

// ---- FLWOR -----------------------------------------------------------------

type pClause struct {
	kind    clauseKind
	name    string
	posName string
	src     pnode
}

type pOrderSpec struct {
	key           pnode
	descending    bool
	emptyGreatest bool
	spec          orderSpec // for compareOrderKeys
}

type pFLWOR struct {
	pbase
	clauses []pClause
	order   []pOrderSpec
	ret     pnode
}

// eval is the strict route: the recursive tuple walk of the
// interpreter, with streaming engaged only below (inside the lowered
// clause sources and return). Full materialization has no early exit
// to exploit, and the plain recursion beats the cursor machine on
// per-tuple overhead.
func (f *pFLWOR) eval(c *context) (Seq, error) {
	if len(f.order) > 0 {
		tups, err := f.sortedTuples(c)
		if err != nil {
			return nil, err
		}
		var out Seq
		for _, t := range tups {
			v, err := pEval(f.ret, t.c)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	}
	var out Seq
	err := f.runBindings(c, 0, func(c2 *context) error {
		v, err := pEval(f.ret, c2)
		if err != nil {
			return err
		}
		out = append(out, v...)
		return nil
	})
	return out, err
}

func (f *pFLWOR) open(c *context) cursor { return f.stream(c) }

func (f *pFLWOR) stream(c *context) cursor {
	if len(f.order) > 0 {
		return f.streamOrdered(c)
	}
	return f.clauseCursor(c, 0)
}

// clauseCursor streams the tuple pipeline from clause idx onward: let
// and where clauses resolve immediately (they are per-tuple scalars),
// for clauses pull their binding sequences lazily, so the return clause
// of the first tuple runs before the second binding is even computed.
func (f *pFLWOR) clauseCursor(c *context, idx int) cursor {
	for idx < len(f.clauses) {
		cl := &f.clauses[idx]
		switch cl.kind {
		case clauseLet:
			v, err := pEval(cl.src, c)
			if err != nil {
				return errCur(err)
			}
			c = c.bind(cl.name, v)
		case clauseWhere:
			b, err := pEbv(cl.src, c)
			if err != nil {
				return errCur(err)
			}
			if !b {
				return emptyCur
			}
		default:
			return &forCursor{f: f, c: c, cl: cl, idx: idx}
		}
		idx++
	}
	return popen(f.ret, c)
}

// forCursor streams one for clause: a lazily opened binding source, one
// inner tuple cursor at a time.
type forCursor struct {
	f     *pFLWOR
	c     *context
	cl    *pClause
	idx   int
	src   cursor
	inner cursor
	i     int
}

func (fc *forCursor) next() (Item, bool, error) {
	for {
		if err := fc.c.st.checkCancel(); err != nil {
			return nil, false, err
		}
		if fc.inner != nil {
			it, ok, err := fc.inner.next()
			if err != nil || ok {
				return it, ok, err
			}
			fc.inner = nil
		}
		if fc.src == nil {
			fc.src = popen(fc.cl.src, fc.c)
		}
		it, ok, err := fc.src.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		fc.i++
		c2 := fc.c.bind(fc.cl.name, singleton(it))
		if fc.cl.posName != "" {
			c2 = c2.bind(fc.cl.posName, singleton(float64(fc.i)))
		}
		fc.inner = fc.f.clauseCursor(c2, fc.idx+1)
	}
}

// runBindings walks the tuple pipeline strictly: binding sequences are
// materialized before iteration (the strict consumer needs every tuple
// anyway).
func (f *pFLWOR) runBindings(c *context, idx int, emit func(*context) error) error {
	if idx == len(f.clauses) {
		return emit(c)
	}
	cl := &f.clauses[idx]
	switch cl.kind {
	case clauseLet:
		v, err := pEval(cl.src, c)
		if err != nil {
			return err
		}
		return f.runBindings(c.bind(cl.name, v), idx+1, emit)
	case clauseWhere:
		b, err := pEbv(cl.src, c)
		if err != nil {
			return err
		}
		if !b {
			return nil
		}
		return f.runBindings(c, idx+1, emit)
	}
	v, err := pEval(cl.src, c)
	if err != nil {
		return err
	}
	for i, it := range v {
		if err := c.st.checkCancel(); err != nil {
			return err
		}
		c2 := c.bind(cl.name, singleton(it))
		if cl.posName != "" {
			c2 = c2.bind(cl.posName, singleton(float64(i+1)))
		}
		if err := f.runBindings(c2, idx+1, emit); err != nil {
			return err
		}
	}
	return nil
}

// flworTup is one order-by tuple: the bound context and its atomized
// sort keys.
type flworTup struct {
	c    *context
	keys []Seq
}

// sortedTuples materializes and sorts the tuple stream by the order-by
// keys (order-by needs every tuple before the first return evaluation).
func (f *pFLWOR) sortedTuples(c *context) ([]flworTup, error) {
	var tups []flworTup
	err := f.runBindings(c, 0, func(c2 *context) error {
		keys := make([]Seq, len(f.order))
		for i := range f.order {
			v, err := pEval(f.order[i].key, c2)
			if err != nil {
				return err
			}
			keys[i] = c2.atomizeSeq(v)
		}
		tups = append(tups, flworTup{c: c2, keys: keys})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(tups, func(i, j int) bool {
		for k := range f.order {
			o := &f.order[k]
			cres, ok := compareOrderKeys(o.spec, tups[i].keys[k], tups[j].keys[k])
			if !ok || cres == 0 {
				continue
			}
			if o.descending {
				return cres > 0
			}
			return cres < 0
		}
		return false
	})
	return tups, nil
}

// streamOrdered sorts the tuples, then streams the return clause tuple
// by tuple (the returns stay lazy; only the binding tuples are
// materialized).
func (f *pFLWOR) streamOrdered(c *context) cursor {
	return &thunkCursor{f: func() (cursor, error) {
		tups, err := f.sortedTuples(c)
		if err != nil {
			return nil, err
		}
		return &concatCursor{open: func(i int) (cursor, bool) {
			if i >= len(tups) {
				return nil, false
			}
			return popen(f.ret, tups[i].c), true
		}}, nil
	}}
}

// ---- function calls --------------------------------------------------------

type pCall struct {
	pbase
	name string
	fn   *builtin
	args []pnode
}

func (e *pCall) eval(c *context) (Seq, error) {
	// Streaming special cases: the aggregate-style builtins whose
	// results depend on at most the first item or two (exists, empty,
	// boolean, not) or only on the item count (count) consume their
	// argument through a cursor, so index scans and FLWOR pipelines
	// below them stop as soon as the answer is determined.
	switch e.fn {
	case bExists, bEmpty:
		if streamWorthy(e.args[0]) && !strictMode(c) {
			_, ok, err := popen(e.args[0], c).next()
			if err != nil {
				return nil, err
			}
			return singletonBool(ok == (e.fn == bExists)), nil
		}
	case bNot, bBoolean:
		b, err := pEbv(e.args[0], c)
		if err != nil {
			return nil, err
		}
		return singletonBool(b == (e.fn == bBoolean)), nil
	case bCount:
		if streamWorthy(e.args[0]) && !strictMode(c) {
			cur := popen(e.args[0], c)
			n := 0
			for {
				if err := c.st.checkCancel(); err != nil {
					return nil, err
				}
				_, ok, err := cur.next()
				if err != nil {
					return nil, err
				}
				if !ok {
					return singleton(float64(n)), nil
				}
				n++
			}
		}
	}
	if len(e.args) == 0 {
		return e.fn.fn(c, nil)
	}
	args := make([]Seq, len(e.args))
	for i, a := range e.args {
		v, err := pEval(a, c)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return e.fn.fn(c, args)
}
func (e *pCall) open(c *context) cursor { return scalarOpen(e, c) }

// Streaming-special builtins, resolved by identity after funcs.go has
// registered them (package init functions run in file order, and a
// package-level var would capture the still-empty map).
var bExists, bEmpty, bNot, bBoolean, bCount, bAnalyze *builtin

func init() {
	bExists = builtins["exists"]
	bEmpty = builtins["empty"]
	bNot = builtins["not"]
	bBoolean = builtins["boolean"]
	bCount = builtins["count"]
	bAnalyze = builtins["analyze-string"]
}

// ---- filters ---------------------------------------------------------------

type pFilter struct {
	pbase
	base  pnode
	preds []pnode
	// sized marks predicates that call last(): their position semantics
	// need the full base cardinality, so the stream materializes there.
	sized []bool
}

func (e *pFilter) eval(c *context) (Seq, error) { return drain(c, e.stream(c)) }
func (e *pFilter) open(c *context) cursor       { return e.stream(c) }

func (e *pFilter) stream(c *context) cursor {
	cur := popen(e.base, c)
	for i, pr := range e.preds {
		if f, ok := constNumPred(pr); ok {
			cur = &constPosCursor{inner: cur, c: c, want: f}
			continue
		}
		if e.sized[i] {
			// last() ahead: materialize here and finish strictly.
			rest := make([]expr, len(e.preds)-i)
			for k, p := range e.preds[i:] {
				rest[k] = p
			}
			inner := cur
			return &thunkCursor{f: func() (cursor, error) {
				items, err := drain(c, inner)
				if err != nil {
					return nil, err
				}
				items, err = applyPredicatesInPlace(c, append(Seq(nil), items...), rest)
				if err != nil {
					return nil, err
				}
				return seqCur(items), nil
			}}
		}
		cur = &predCursor{inner: cur, pr: pr, c: c}
	}
	return cur
}

// constPosCursor implements a constant numeric predicate [k]: skip k-1
// items, emit the k-th, and stop pulling — the early-exit shape of
// (//w)[1].
type constPosCursor struct {
	inner cursor
	c     *context
	want  float64
	done  bool
}

func (pc *constPosCursor) next() (Item, bool, error) {
	if pc.done {
		return nil, false, nil
	}
	pc.done = true
	k := int(pc.want)
	if float64(k) != pc.want || k < 1 {
		return nil, false, nil
	}
	for i := 1; ; i++ {
		if err := pc.c.st.checkCancel(); err != nil {
			return nil, false, err
		}
		it, ok, err := pc.inner.next()
		if err != nil || !ok {
			return nil, false, err
		}
		if i == k {
			return it, true, nil
		}
	}
}

// predCursor filters a stream by one predicate with incremental
// positions. size is the known candidate count (index segments, where
// run lengths fix it upfront) or 0 for position-only predicates whose
// base cardinality is never consulted (pFilter rejects last() here).
// A positive limit stops the cursor once that many items have been
// examined (parPredCursor's serial phase). The scratch context is
// embedded so per-item evaluation allocates nothing.
type predCursor struct {
	inner  cursor
	pr     expr
	c      *context
	c2     context
	inited bool
	pos    int
	size   int
	limit  int
}

func (pc *predCursor) next() (Item, bool, error) {
	if !pc.inited {
		pc.c2 = *pc.c
		pc.c2.size = pc.size
		pc.inited = true
	}
	for pc.limit <= 0 || pc.pos < pc.limit {
		if err := pc.c.st.checkCancel(); err != nil {
			return nil, false, err
		}
		it, ok, err := pc.inner.next()
		if err != nil || !ok {
			return nil, false, err
		}
		pc.pos++
		pc.c2.item, pc.c2.pos = it, pc.pos
		keep, err := predKeeps(&pc.c2, pc.pr)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return it, true, nil
		}
	}
	return nil, false, nil
}

// ---- constructors ----------------------------------------------------------

type pElem struct {
	pbase
	name    string
	attrs   []attrTpl // parts hold lowered pnodes
	content []expr    // lowered pnodes (or pRawText)
}

func (e *pElem) eval(c *context) (Seq, error) {
	return buildElement(c, e.name, e.attrs, e.content)
}
func (e *pElem) open(c *context) cursor { return scalarOpen(e, c) }

type pCompCtor struct {
	pbase
	kind     byte
	name     string
	nameExpr pnode // nil when the name is literal
	content  pnode // nil for empty content
}

func (e *pCompCtor) eval(c *context) (Seq, error) {
	var nameExpr expr
	if e.nameExpr != nil {
		nameExpr = e.nameExpr
	}
	name, err := resolveCtorName(c, e.name, nameExpr)
	if err != nil {
		return nil, err
	}
	var content Seq
	if e.content != nil {
		if content, err = pEval(e.content, c); err != nil {
			return nil, err
		}
	}
	return buildComputed(e.kind, name, content)
}
func (e *pCompCtor) open(c *context) cursor { return scalarOpen(e, c) }

// ---- small local helpers ---------------------------------------------------

// usesLast reports whether the expression subtree contains a last()
// call (conservatively including nested scopes, which merely disables a
// streaming shortcut).
func usesLast(e expr) bool {
	if call, ok := e.(*callExpr); ok && call.name == "last" && len(call.args) == 0 {
		return true
	}
	found := false
	visitChildren(e, func(ch expr) {
		if !found && usesLast(ch) {
			found = true
		}
	})
	return found
}

// hasAnalyzeString reports whether the expression subtree calls
// analyze-string (which forces strict evaluation order, see the file
// comment).
func hasAnalyzeString(e expr) bool {
	if call, ok := e.(*callExpr); ok && call.fn == bAnalyze {
		return true
	}
	found := false
	visitChildren(e, func(ch expr) {
		if !found && hasAnalyzeString(ch) {
			found = true
		}
	})
	return found
}

// freeVars appends to out, once each, the variables e references
// outside any binding of them; bound holds the names in scope.
func freeVars(e expr, bound, out []string) []string {
	switch x := e.(type) {
	case *varExpr:
		if !slices.Contains(bound, x.name) && !slices.Contains(out, x.name) {
			out = append(out, x.name)
		}
		return out
	case *flworExpr:
		for _, cl := range x.clauses {
			out = freeVars(cl.src, bound, out)
			for _, name := range []string{cl.name, cl.posName} {
				if name != "" {
					bound = append(bound, name)
				}
			}
		}
		for _, o := range x.order {
			out = freeVars(o.key, bound, out)
		}
		return freeVars(x.ret, bound, out)
	case *quantExpr:
		for i, src := range x.srcs {
			out = freeVars(src, bound, out)
			bound = append(bound, x.names[i])
		}
		return freeVars(x.sat, bound, out)
	}
	visitChildren(e, func(ch expr) { out = freeVars(ch, bound, out) })
	return out
}

// describeLiteral renders a literal for EXPLAIN output.
func describeLiteral(v Item) string {
	if s, ok := v.(string); ok {
		if r := []rune(s); len(r) > 20 {
			s = string(r[:20]) + "…"
		}
		return `"` + s + `"`
	}
	return stringValue(v)
}
