package xquery

import (
	"math"
	"sort"
	"strings"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file is the AST interpreter: the recursive eval methods that
// define the semantics of every expression kind directly over the
// syntax tree. Production evaluation runs through the cursor engine
// (plan.go lowers the AST to physical operators, lower.go/stepcursor.go
// execute them); the interpreter is retained as the differential oracle
// the cursor engine is property-tested against — with debugNaiveSteps
// set it evaluates every query with the reference step evaluator
// (evalStepRef) and no physical plan, and the differential suites
// require node-identical results between the two engines.

// ---- leaf expressions ----------------------------------------------------

func (e *literalExpr) eval(*context) (Seq, error) { return e.seq, nil }

func (e *rawTextExpr) eval(*context) (Seq, error) { return singleton(e.s), nil }

func (e *varExpr) eval(c *context) (Seq, error) {
	v, ok := c.lookup(e.name)
	if !ok {
		return nil, errf("XPST0008", "undefined variable $%s", e.name)
	}
	return v, nil
}

func (e *contextItemExpr) eval(c *context) (Seq, error) {
	if c.item == nil {
		return nil, errf("XPDY0002", "context item is undefined")
	}
	return singleton(c.item), nil
}

func (e *rootExpr) eval(c *context) (Seq, error) {
	return singleton(c.st.rootFor(c.item)), nil
}

func (e *seqExpr) eval(c *context) (Seq, error) {
	var out Seq
	for _, it := range e.items {
		v, err := it.eval(c)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

func (e *rangeExpr) eval(c *context) (Seq, error) {
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

// ---- boolean and comparison ------------------------------------------------

func (e *orExpr) eval(c *context) (Seq, error) {
	va, err := e.a.eval(c)
	if err != nil {
		return nil, err
	}
	ba, err := ebv(va)
	if err != nil {
		return nil, err
	}
	if ba {
		return seqTrue, nil
	}
	vb, err := e.b.eval(c)
	if err != nil {
		return nil, err
	}
	bb, err := ebv(vb)
	return singletonBool(bb), err
}

func (e *andExpr) eval(c *context) (Seq, error) {
	va, err := e.a.eval(c)
	if err != nil {
		return nil, err
	}
	ba, err := ebv(va)
	if err != nil {
		return nil, err
	}
	if !ba {
		return seqFalse, nil
	}
	vb, err := e.b.eval(c)
	if err != nil {
		return nil, err
	}
	bb, err := ebv(vb)
	return singletonBool(bb), err
}

// evalCmp implements every comparison kind over two materialized
// operands (shared with the lowered comparison operator).
func evalCmp(c *context, op string, kind cmpKind, va, vb Seq) (Seq, error) {
	switch kind {
	case cmpNode:
		if len(va) == 0 || len(vb) == 0 {
			return Seq{}, nil
		}
		na, aok := va[0].(*dom.Node)
		nb, bok := vb[0].(*dom.Node)
		if len(va) > 1 || len(vb) > 1 || !aok || !bok {
			return nil, errf("XPTY0004", "operands of %q must be single nodes", op)
		}
		switch op {
		case "is":
			return singletonBool(na == nb), nil
		case "<<":
			return singletonBool(dom.Compare(na, nb) < 0), nil
		default:
			return singletonBool(dom.Compare(na, nb) > 0), nil
		}
	case cmpValue:
		if len(va) == 0 || len(vb) == 0 {
			return Seq{}, nil
		}
		if len(va) > 1 || len(vb) > 1 {
			return nil, errf("XPTY0004", "operands of %q must be single values", op)
		}
		cres, ok := compareAtomic(op, c.atomize(va[0]), c.atomize(vb[0]))
		if !ok {
			return seqFalse, nil
		}
		return singletonBool(applyCmp(op, cres)), nil
	}
	// General comparison: existential over both sequences.
	for _, ia := range va {
		for _, ib := range vb {
			cres, ok := compareAtomic(op, c.atomize(ia), c.atomize(ib))
			if ok && applyCmp(op, cres) {
				return seqTrue, nil
			}
		}
	}
	return seqFalse, nil
}

func (e *cmpExpr) eval(c *context) (Seq, error) {
	va, err := e.a.eval(c)
	if err != nil {
		return nil, err
	}
	vb, err := e.b.eval(c)
	if err != nil {
		return nil, err
	}
	return evalCmp(c, e.op, e.kind, va, vb)
}

// ---- arithmetic ------------------------------------------------------------

// evalArith applies one arithmetic operator (shared with the lowered
// arithmetic operator).
func evalArith(op string, x, y float64) (Seq, error) {
	switch op {
	case "+":
		return singleton(x + y), nil
	case "-":
		return singleton(x - y), nil
	case "*":
		return singleton(x * y), nil
	case "div":
		return singleton(x / y), nil
	case "idiv":
		if y == 0 {
			return nil, errf("FOAR0001", "integer division by zero")
		}
		return singleton(math.Trunc(x / y)), nil
	case "mod":
		return singleton(math.Mod(x, y)), nil
	}
	return nil, errf("XPST0003", "unknown arithmetic operator %q", op)
}

func (e *arithExpr) eval(c *context) (Seq, error) {
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

func (e *unaryExpr) eval(c *context) (Seq, error) {
	x, empty, err := evalNumber(c, e.x, "unary minus")
	if err != nil || empty {
		return nil, err
	}
	return singleton(-x), nil
}

// ---- node-set operators ------------------------------------------------------

// evalUnion merges two node sequences in document order (shared with
// the lowered union operator).
func evalUnion(va, vb Seq) (Seq, error) {
	na, err := toNodes(va, "union")
	if err != nil {
		return nil, err
	}
	nb, err := toNodes(vb, "union")
	if err != nil {
		return nil, err
	}
	return nodesToSeq(core.SortDoc(append(na, nb...))), nil
}

func (e *unionExpr) eval(c *context) (Seq, error) {
	va, err := e.a.eval(c)
	if err != nil {
		return nil, err
	}
	vb, err := e.b.eval(c)
	if err != nil {
		return nil, err
	}
	return evalUnion(va, vb)
}

// evalIntersect implements intersect/except (shared with the lowered
// operator).
func evalIntersect(va, vb Seq, except bool) (Seq, error) {
	op := "intersect"
	if except {
		op = "except"
	}
	na, err := toNodes(va, op)
	if err != nil {
		return nil, err
	}
	nb, err := toNodes(vb, op)
	if err != nil {
		return nil, err
	}
	inB := make(map[*dom.Node]bool, len(nb))
	for _, n := range nb {
		inB[n] = true
	}
	var out []*dom.Node
	for _, n := range na {
		if inB[n] != except {
			out = append(out, n)
		}
	}
	return nodesToSeq(core.SortDoc(out)), nil
}

func (e *intersectExpr) eval(c *context) (Seq, error) {
	va, err := e.a.eval(c)
	if err != nil {
		return nil, err
	}
	vb, err := e.b.eval(c)
	if err != nil {
		return nil, err
	}
	return evalIntersect(va, vb, e.except)
}

// ---- control flow -------------------------------------------------------------

func (e *ifExpr) eval(c *context) (Seq, error) {
	v, err := e.cond.eval(c)
	if err != nil {
		return nil, err
	}
	b, err := ebv(v)
	if err != nil {
		return nil, err
	}
	if b {
		return e.then.eval(c)
	}
	return e.els.eval(c)
}

func (q *quantExpr) eval(c *context) (Seq, error) {
	b, err := q.walk(c, 0)
	if err != nil {
		return nil, err
	}
	return singletonBool(b), nil
}

func (q *quantExpr) walk(c *context, i int) (bool, error) {
	if i == len(q.names) {
		v, err := q.sat.eval(c)
		if err != nil {
			return false, err
		}
		return ebv(v)
	}
	src, err := q.srcs[i].eval(c)
	if err != nil {
		return false, err
	}
	for _, it := range src {
		b, err := q.walk(c.bind(q.names[i], singleton(it)), i+1)
		if err != nil {
			return false, err
		}
		if q.every && !b {
			return false, nil
		}
		if !q.every && b {
			return true, nil
		}
	}
	return q.every, nil
}

// ---- FLWOR ----------------------------------------------------------------------

func (f *flworExpr) eval(c *context) (Seq, error) {
	if len(f.order) == 0 {
		var out Seq
		err := f.run(c, 0, func(c2 *context) error {
			v, err := f.ret.eval(c2)
			if err != nil {
				return err
			}
			out = append(out, v...)
			return nil
		})
		return out, err
	}
	type tup struct {
		c    *context
		keys []Seq
	}
	var tups []tup
	err := f.run(c, 0, func(c2 *context) error {
		keys := make([]Seq, len(f.order))
		for i, o := range f.order {
			v, err := o.key.eval(c2)
			if err != nil {
				return err
			}
			keys[i] = c2.atomizeSeq(v)
		}
		tups = append(tups, tup{c: c2, keys: keys})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(tups, func(i, j int) bool {
		for k, o := range f.order {
			cres, ok := compareOrderKeys(o, tups[i].keys[k], tups[j].keys[k])
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
	var out Seq
	for _, t := range tups {
		v, err := f.ret.eval(t.c)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

func (f *flworExpr) run(c *context, idx int, emit func(*context) error) error {
	if idx == len(f.clauses) {
		return emit(c)
	}
	cl := f.clauses[idx]
	switch cl.kind {
	case clauseLet:
		v, err := cl.src.eval(c)
		if err != nil {
			return err
		}
		return f.run(c.bind(cl.name, v), idx+1, emit)
	case clauseWhere:
		v, err := cl.src.eval(c)
		if err != nil {
			return err
		}
		b, err := ebv(v)
		if err != nil {
			return err
		}
		if !b {
			return nil
		}
		return f.run(c, idx+1, emit)
	}
	// for clause
	v, err := cl.src.eval(c)
	if err != nil {
		return err
	}
	for i, it := range v {
		c2 := c.bind(cl.name, singleton(it))
		if cl.posName != "" {
			c2 = c2.bind(cl.posName, singleton(float64(i+1)))
		}
		if err := f.run(c2, idx+1, emit); err != nil {
			return err
		}
	}
	return nil
}

// ---- function calls ---------------------------------------------------------------

func (e *callExpr) eval(c *context) (Seq, error) {
	if len(e.args) == 0 { // position(), last(), true(), …: no arg slice
		return e.fn.fn(c, nil)
	}
	args := make([]Seq, len(e.args))
	for i, a := range e.args {
		v, err := a.eval(c)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return e.fn.fn(c, args)
}

// ---- filters and paths --------------------------------------------------------------

func (e *filterExpr) eval(c *context) (Seq, error) {
	v, err := e.base.eval(c)
	if err != nil {
		return nil, err
	}
	return applyPredicates(c, v, e.preds)
}

func (p *pathExpr) eval(c *context) (Seq, error) {
	var cur Seq
	switch {
	case p.start != nil:
		v, err := p.start.eval(c)
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
	for si, s := range p.steps {
		var err error
		if s.prim != nil {
			cur, err = evalPrimStep(c, cur, s, si == len(p.steps)-1)
		} else {
			cur, err = evalStepRef(c, cur, s)
		}
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// evalStepRef is the reference axis-step evaluator: filter every
// candidate with matchTest, apply predicates, and restore document order
// with a full comparison sort after the step. It is the semantic oracle
// the pipeline (evalStep) and the streaming step cursors are
// differential-tested against.
func evalStepRef(c *context, cur Seq, s *step) (Seq, error) {
	var out Seq
	for _, it := range cur {
		n, ok := it.(*dom.Node)
		if !ok {
			return nil, errf("XPTY0019", "%s:: step applied to an atomic value", s.axis)
		}
		nodes := c.st.docFor(n).Eval(s.axis, n)
		filtered := make(Seq, 0, len(nodes))
		for _, m := range nodes {
			match, err := matchTest(c, s.axis, m, s.test)
			if err != nil {
				return nil, err
			}
			if match {
				filtered = append(filtered, m)
			}
		}
		filtered, err := applyPredicates(c, filtered, s.preds)
		if err != nil {
			return nil, err
		}
		out = append(out, filtered...)
	}
	return sortDedupe(out), nil
}

// matchTest applies a node test (Definition 2, plus hierarchy-qualified
// name tests) to a candidate node.
func matchTest(c *context, ax core.Axis, n *dom.Node, t nodeTest) (bool, error) {
	principal := dom.Element
	if ax == core.AxisAttribute {
		principal = dom.Attribute
	}
	switch t.kind {
	case testName:
		if n.Kind != principal || n.Name != t.name {
			return false, nil
		}
		return hierOK(c, n, t.hiers)
	case testStar:
		if n.Kind != principal {
			return false, nil
		}
		return hierOK(c, n, t.hiers)
	case testText:
		if n.Kind != dom.Text {
			return false, nil
		}
		return hierOK(c, n, t.hiers)
	case testNode:
		if len(t.hiers) == 0 {
			return true, nil
		}
		return hierOK(c, n, t.hiers)
	case testComment:
		return n.Kind == dom.Comment, nil
	case testPI:
		return n.Kind == dom.ProcInst && (t.name == "" || n.Name == t.name), nil
	case testLeaf:
		if n.Kind != dom.Leaf {
			return false, nil
		}
		return hierOK(c, n, t.hiers)
	}
	return false, nil
}

// hierOK implements the hierarchy restriction of Definition 2: the node
// must belong to one of the named hierarchies. The shared root belongs to
// all hierarchies; a leaf belongs to every hierarchy covering it.
func hierOK(c *context, n *dom.Node, hiers []string) (bool, error) {
	if len(hiers) == 0 {
		return true, nil
	}
	d := c.st.docFor(n)
	for _, h := range hiers {
		if d.HierarchyByName(h) == nil {
			return false, errf("MHXQ0001", "unknown hierarchy %q in node test", h)
		}
	}
	if n == d.Root {
		return true, nil
	}
	if n.Kind == dom.Leaf {
		for _, p := range d.LeafParents(n) {
			for _, h := range hiers {
				if p.Hier == h {
					return true, nil
				}
			}
		}
		return false, nil
	}
	for _, h := range hiers {
		if n.Hier == h {
			return true, nil
		}
	}
	return false, nil
}

// ---- constructors ---------------------------------------------------------------------

// buildElement constructs a direct element: attribute value templates,
// then content items (shared with the lowered constructor operator —
// the attrs/content expressions may be AST or lowered nodes).
func buildElement(c *context, name string, attrs []attrTpl, content []expr) (Seq, error) {
	el := dom.NewElement(name)
	for _, a := range attrs {
		var b strings.Builder
		for _, part := range a.parts {
			if rt, ok := rawText(part); ok {
				b.WriteString(rt)
				continue
			}
			v, err := part.eval(c)
			if err != nil {
				return nil, err
			}
			for i, it := range v {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(stringItem(c, it))
			}
		}
		el.SetAttr(a.name, b.String())
	}
	for _, ce := range content {
		if rt, ok := rawText(ce); ok {
			addTextTo(el, rt)
			continue
		}
		v, err := ce.eval(c)
		if err != nil {
			return nil, err
		}
		appendContent(el, v)
	}
	return singleton(el), nil
}

// rawText recognizes literal character data inside a constructor, in
// AST or lowered form.
func rawText(e expr) (string, bool) {
	switch rt := e.(type) {
	case *rawTextExpr:
		return rt.s, true
	case *pRawText:
		return rt.s, true
	}
	return "", false
}

func (e *elemExpr) eval(c *context) (Seq, error) {
	return buildElement(c, e.name, e.attrs, e.content)
}

// buildComputed constructs a computed element/attribute/text/comment
// node from an already-resolved name and content (shared with the
// lowered constructor operator).
func buildComputed(kind byte, name string, content Seq) (Seq, error) {
	if (kind == 'e' || kind == 'a') && !validXMLName(name) {
		return nil, errf("XQDY0074", "computed constructor: invalid name %q", name)
	}
	switch kind {
	case 'e':
		el := dom.NewElement(name)
		appendContent(el, content)
		return singleton(el), nil
	case 'a':
		return singleton(&dom.Node{Kind: dom.Attribute, Name: name, Data: joinAtomics(content)}), nil
	case 't':
		return singleton(dom.NewText(joinAtomics(content))), nil
	}
	return singleton(&dom.Node{Kind: dom.Comment, Data: joinAtomics(content)}), nil
}

// resolveCtorName evaluates a computed constructor's name expression.
func resolveCtorName(c *context, name string, nameExpr expr) (string, error) {
	if nameExpr == nil {
		return name, nil
	}
	v, err := nameExpr.eval(c)
	if err != nil {
		return "", err
	}
	v = c.atomizeSeq(v)
	if len(v) != 1 {
		return "", errf("XPTY0004", "computed constructor name must be a single value")
	}
	return stringValue(v[0]), nil
}

func (e *compCtorExpr) eval(c *context) (Seq, error) {
	name, err := resolveCtorName(c, e.name, e.nameExpr)
	if err != nil {
		return nil, err
	}
	var content Seq
	if e.content != nil {
		v, err := e.content.eval(c)
		if err != nil {
			return nil, err
		}
		content = v
	}
	return buildComputed(e.kind, name, content)
}
