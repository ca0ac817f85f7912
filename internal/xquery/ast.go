package xquery

import "mhxquery/internal/core"

// expr is a compiled expression node.
type expr interface {
	eval(c *context) (Seq, error)
}

// literalExpr is a string or number literal; seq is the precomputed
// singleton so evaluation allocates nothing.
type literalExpr struct {
	v   Item
	seq Seq
}

func newLiteral(v Item) *literalExpr { return &literalExpr{v: v, seq: Seq{v}} }

// varExpr references a bound variable.
type varExpr struct{ name string }

// contextItemExpr is ".".
type contextItemExpr struct{}

// rootExpr is a bare "/" (the KyGODDAG root of the active document).
type rootExpr struct{}

// seqExpr is the comma operator.
type seqExpr struct{ items []expr }

// rangeExpr is "a to b".
type rangeExpr struct{ lo, hi expr }

// orExpr / andExpr are the boolean connectives.
type orExpr struct{ a, b expr }
type andExpr struct{ a, b expr }

// cmpKind distinguishes general (=), value (eq) and node (is, <<, >>)
// comparisons.
type cmpKind uint8

const (
	cmpGeneral cmpKind = iota
	cmpValue
	cmpNode
)

type cmpExpr struct {
	op   string
	kind cmpKind
	a, b expr
}

// arithExpr is +, -, *, div, idiv, mod.
type arithExpr struct {
	op   string
	a, b expr
}

// unaryExpr is unary minus (+ is absorbed at parse time).
type unaryExpr struct{ x expr }

// unionExpr is "|"/"union"; intersectExpr covers intersect/except.
type unionExpr struct{ a, b expr }
type intersectExpr struct {
	except bool
	a, b   expr
}

// ifExpr is if (cond) then .. else ..
type ifExpr struct{ cond, then, els expr }

// quantExpr is some/every $v in E satisfies E.
type quantExpr struct {
	every bool
	names []string
	srcs  []expr
	sat   expr
}

// flworExpr is a FLWOR expression.
type flworExpr struct {
	clauses []flworClause
	order   []orderSpec
	ret     expr
}

type clauseKind uint8

const (
	clauseFor clauseKind = iota
	clauseLet
	clauseWhere
)

type flworClause struct {
	kind    clauseKind
	name    string // bound variable (for/let)
	posName string // "at $pos" variable, or ""
	src     expr   // binding sequence (for/let) or condition (where)
}

type orderSpec struct {
	key           expr
	descending    bool
	emptyGreatest bool
}

// callExpr is a call of a built-in function, resolved at compile time.
type callExpr struct {
	name string
	fn   *builtin
	args []expr
}

// nodeTest is a name, wildcard or kind test, optionally restricted to a
// comma-separated list of hierarchies (Definition 2 plus the
// hierarchy-qualified name test extension, e.g. res('restoration')).
type testKind uint8

const (
	testName testKind = iota
	testStar
	testText
	testNode
	testComment
	testPI
	testLeaf
)

type nodeTest struct {
	kind  testKind
	name  string
	hiers []string
}

// step is one path step: either an axis step (axis, test, predicates) or,
// when prim is non-nil, a primary-expression step evaluated once per
// input node ("$x/string(.)").
type step struct {
	axis  core.Axis
	test  nodeTest
	preds []expr
	prim  expr
	// posSel is the compile-time classification of preds[0] when it is a
	// constant positional selection: k > 0 for an integer literal [k],
	// posLast for [last()], 0 otherwise. The pipeline then stops
	// candidate iteration at the selected node instead of materializing
	// and filtering the whole candidate set.
	posSel int
}

// posLast marks a [last()] first predicate in step.posSel.
const posLast = -1

// classifyPosSel recognizes the positional first predicates the step
// evaluator can shortcut: an integer literal ([1], [3], …) or a bare
// last() call.
func classifyPosSel(preds []expr) int {
	if len(preds) == 0 {
		return 0
	}
	switch p := preds[0].(type) {
	case *literalExpr:
		if f, ok := p.v.(float64); ok {
			if k := int(f); float64(k) == f && k >= 1 {
				return k
			}
		}
	case *callExpr:
		if p.name == "last" && len(p.args) == 0 {
			return posLast
		}
	}
	return 0
}

// pathExpr is a (possibly absolute) path. start is the initial-value
// expression (nil: the context item, or the root when absolute).
type pathExpr struct {
	absolute bool
	start    expr
	steps    []*step
}

// filterExpr is a primary expression with predicates.
type filterExpr struct {
	base  expr
	preds []expr
}

// elemExpr is a direct element constructor. Content items are rawTextExpr
// (literal character data), elemExpr (nested constructors) or arbitrary
// enclosed expressions.
type elemExpr struct {
	name    string
	attrs   []attrTpl
	content []expr
}

// attrTpl is an attribute value template: literal parts (rawTextExpr)
// interleaved with enclosed expressions.
type attrTpl struct {
	name  string
	parts []expr
}

// rawTextExpr is literal character data inside a constructor.
type rawTextExpr struct{ s string }

// compCtorExpr is a computed constructor: element {N} {C}, attribute,
// text or comment.
type compCtorExpr struct {
	kind     byte // 'e', 'a', 't', 'c'
	name     string
	nameExpr expr // non-nil when the name is computed
	content  expr // nil for empty content
}
