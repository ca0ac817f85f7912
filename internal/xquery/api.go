package xquery

import (
	stdctx "context"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/sched"
)

// Query is a compiled extended-XQuery expression. A Query is immutable
// and safe for concurrent evaluation against any number of documents.
// Evaluation is plan-driven: the first evaluation against a document
// hierarchy layout lowers the whole AST to physical operators (plan.go)
// and caches the plan by layout signature; execution pulls results
// through cursors, so early-exit consumers (and Stream with a limit)
// stop the pipeline after the items they need.
type Query struct {
	src  string
	body expr
	// strictOnly marks queries containing analyze-string, which must
	// evaluate in interpreter order (lower.go).
	strictOnly bool
	// free lists the variables the query references outside any binding
	// of them; every evaluation must supply them (else XPST0008).
	free []string

	plans planCache
}

// Resolver supplies the documents named by the doc() and collection()
// functions. Implementations must be safe for concurrent use; the
// returned documents are evaluated against but never mutated.
type Resolver interface {
	// ResolveDoc returns the document registered under name.
	ResolveDoc(name string) (*core.Document, error)
	// ResolveCollection returns the documents whose names match the
	// glob pattern (path.Match syntax), in stable name order. The empty
	// pattern selects every document.
	ResolveCollection(pattern string) ([]*core.Document, error)
}

// Compile parses an extended-XQuery expression.
func Compile(src string) (*Query, error) {
	body, err := parseQuery(src)
	if err != nil {
		return nil, err
	}
	return newQuery(src, body), nil
}

// newQuery wraps a parsed expression as a compiled query, deriving its
// static properties once.
func newQuery(src string, body expr) *Query {
	return &Query{src: src, body: body, strictOnly: hasAnalyzeString(body), free: freeVars(body, nil, nil)}
}

// MustCompile is Compile panicking on error; for fixtures and tests.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Source returns the query text.
func (q *Query) Source() string { return q.src }

// Eval evaluates the query against a KyGODDAG document. The initial
// context item is the shared root. Temporary hierarchies created by
// analyze-string live in overlay documents private to this evaluation and
// are discarded when it returns (Definition 4(5)); the input document is
// never mutated.
func (q *Query) Eval(d *core.Document) (Seq, error) {
	return q.EvalWithVars(d, nil)
}

// EvalWithVars evaluates the query with externally bound variables.
func (q *Query) EvalWithVars(d *core.Document, vars map[string]Seq) (Seq, error) {
	return q.EvalWithResolver(d, vars, nil)
}

// EvalWithResolver evaluates the query with externally bound variables
// and a document resolver backing the doc() and collection() functions.
// With a nil resolver those functions raise FODC0002/FODC0004.
func (q *Query) EvalWithResolver(d *core.Document, vars map[string]Seq, r Resolver) (Seq, error) {
	return q.PlanFor(d).eval(nil, d, vars, r, nil)
}

// EvalContext is EvalWithResolver under a cancellation context: when
// ctx is canceled (deadline, client disconnect) the evaluation stops
// within a bounded number of items and returns an MHXQ0002 error.
func (q *Query) EvalContext(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) (Seq, error) {
	return q.PlanFor(d).eval(ctx, d, vars, r, nil)
}

// PlanFor returns the query lowered to physical operators for d's
// hierarchy layout, reusing the per-query plan cache. Plans are
// immutable and safe for concurrent evaluation; a plan built for one
// layout still evaluates correctly against any document (bindings are
// revalidated by document pointer at run time).
func (q *Query) PlanFor(d *core.Document) *Plan {
	sig := d.Signature()
	if pl := q.plans.get(sig); pl != nil {
		return pl
	}
	return q.plans.put(sig, newPlan(q, d))
}

// Eval evaluates the plan's query against d with externally bound
// variables and an optional resolver.
func (pl *Plan) Eval(d *core.Document, vars map[string]Seq, r Resolver) (Seq, error) {
	return pl.eval(nil, d, vars, r, nil)
}

// EvalContext is Eval under a cancellation context.
func (pl *Plan) EvalContext(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) (Seq, error) {
	return pl.eval(ctx, d, vars, r, nil)
}

// eval is the strict (fully materializing) entry point: the lowered
// program evaluates through the pnode eval route, which engages
// streaming only where an early exit exists to exploit (filters,
// exists/empty/count, quantifiers). Stream is the item-at-a-time entry
// point.
func (pl *Plan) eval(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver, counts []opCard) (Seq, error) {
	c, err := pl.newEvalContext(ctx, d, vars, r, counts)
	if err != nil {
		return nil, err
	}
	if debugNaiveSteps {
		return pl.q.body.eval(c)
	}
	return pEval(pl.prog, c)
}

// newEvalContext starts an evaluation. A free variable missing from
// vars is a static error (XPST0008), raised here for every entry point
// before anything evaluates.
func (pl *Plan) newEvalContext(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver, counts []opCard) (*context, error) {
	for _, name := range pl.q.free {
		if _, ok := vars[name]; !ok {
			return nil, errf("XPST0008", "undefined variable $%s", name)
		}
	}
	st := &evalState{doc: d, resolver: r, ctx: ctx}
	if !debugNaiveSteps {
		st.plan = pl
		st.explain = counts
	}
	// Intra-query parallelism (parallel.go): strict-only plans
	// (analyze-string) must evaluate in interpreter order, so they never
	// get a pool.
	if !pl.strictOnly {
		if par := QueryWorkers(); par > 1 {
			st.par = par
			st.pool = sched.Default()
		}
	}
	c := &context{st: st, item: d.Root, pos: 1, size: 1}
	for name, val := range vars {
		c = c.bind(name, val)
	}
	return c, nil
}

// Stream is a lazy, pull-based result iterator over one evaluation.
// Items are produced on demand: abandoning a Stream after n items does
// only the work those n items required (no Close is needed — cursors
// own no resources). A Stream is single-use and not safe for concurrent
// use.
type Stream struct {
	c    *context
	cur  cursor
	err  error
	done bool
	n    int
}

// Stream starts a streaming evaluation. ctx may be nil (uncancellable).
func (pl *Plan) Stream(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) *Stream {
	return pl.stream(ctx, d, vars, r, nil)
}

// Stream starts a streaming evaluation through the cached plan for d.
func (q *Query) Stream(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) *Stream {
	return q.PlanFor(d).Stream(ctx, d, vars, r)
}

func (pl *Plan) stream(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver, counts []opCard) *Stream {
	c, err := pl.newEvalContext(ctx, d, vars, r, counts)
	if err != nil {
		return &Stream{err: err}
	}
	var cur cursor
	if debugNaiveSteps {
		body := pl.q.body
		cur = &thunkCursor{f: func() (cursor, error) {
			s, err := body.eval(c)
			if err != nil {
				return nil, err
			}
			return seqCur(s), nil
		}}
	} else {
		cur = popen(pl.prog, c)
	}
	return &Stream{c: c, cur: cur}
}

// Next returns the next result item. After an error or exhaustion it
// keeps returning (nil, false, err).
func (s *Stream) Next() (Item, bool, error) {
	if s.err != nil || s.done {
		return nil, false, s.err
	}
	// Poll cancellation here too: producers whose next() never loops
	// (range cursors, literal sequences) would otherwise let a
	// top-level drain outrun the deadline.
	if err := s.c.st.checkCancel(); err != nil {
		s.err = err
		return nil, false, err
	}
	it, ok, err := s.cur.next()
	if err != nil {
		s.err = err
		return nil, false, err
	}
	if !ok {
		s.done = true
		return nil, false, nil
	}
	s.n++
	return it, true, nil
}

// Count returns how many items Next has produced so far.
func (s *Stream) Count() int { return s.n }

// Take drains up to limit items (all remaining when limit <= 0).
// Evaluation stops once the limit is produced — the upstream operators
// do no further work.
func (s *Stream) Take(limit int) (Seq, error) {
	var out Seq
	for limit <= 0 || len(out) < limit {
		it, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, it)
	}
	return out, nil
}

// Explain evaluates the query against d with per-operator cardinality
// instrumentation and returns the result together with the operator
// tree (index-vs-scan decisions plus observed cardinalities) covering
// the whole lowered query.
func (q *Query) Explain(d *core.Document, vars map[string]Seq, r Resolver) (Seq, *ExplainOp, error) {
	pl := q.PlanFor(d)
	counts := make([]opCard, pl.nOps)
	seq, err := pl.eval(nil, d, vars, r, counts)
	if err != nil {
		return nil, nil, err
	}
	return seq, pl.render(counts), nil
}

// evalAnalyze is eval with per-operator wall-time instrumentation
// enabled; it returns the result alongside the total evaluation wall
// time. Timing rides on the same explain slots as cardinality
// accounting, so the uninstrumented hot path stays untouched.
func (pl *Plan) evalAnalyze(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver, counts []opCard) (Seq, time.Duration, error) {
	c, err := pl.newEvalContext(ctx, d, vars, r, counts)
	if err != nil {
		return nil, 0, err
	}
	c.st.timed = true
	start := time.Now()
	var seq Seq
	if debugNaiveSteps {
		seq, err = pl.q.body.eval(c)
	} else {
		seq, err = pEval(pl.prog, c)
	}
	return seq, time.Since(start), err
}

// ExplainAnalyze is Explain upgraded to a true EXPLAIN ANALYZE: the
// query actually runs, and the returned operator tree carries observed
// per-operator wall time (ExplainOp.Nanos, inclusive of children) in
// addition to the observed cardinalities. The root's Nanos is the total
// query wall time.
func (q *Query) ExplainAnalyze(d *core.Document, vars map[string]Seq, r Resolver) (Seq, *ExplainOp, error) {
	return q.ExplainAnalyzeContext(nil, d, vars, r)
}

// ExplainAnalyzeContext is ExplainAnalyze under a cancellation context.
func (q *Query) ExplainAnalyzeContext(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) (Seq, *ExplainOp, error) {
	pl := q.PlanFor(d)
	return pl.ExplainAnalyze(ctx, d, vars, r)
}

// ExplainAnalyze runs the plan with timing instrumentation and returns
// the result plus the analyzed operator tree. See Query.ExplainAnalyze.
func (pl *Plan) ExplainAnalyze(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) (Seq, *ExplainOp, error) {
	counts := make([]opCard, pl.nOps)
	seq, total, err := pl.evalAnalyze(ctx, d, vars, r, counts)
	if err != nil {
		return nil, nil, err
	}
	root := pl.render(counts)
	root.Nanos = int64(total)
	return seq, root, nil
}

// StreamExplain is Stream with per-operator instrumentation: the
// returned render function may be called once the caller has pulled
// whatever it needs, yielding the cardinalities observed so far — the
// observable proof that a limited stream stopped the upstream operators
// early.
func (q *Query) StreamExplain(ctx stdctx.Context, d *core.Document, vars map[string]Seq, r Resolver) (*Stream, func() *ExplainOp) {
	pl := q.PlanFor(d)
	counts := make([]opCard, pl.nOps)
	s := pl.stream(ctx, d, vars, r, counts)
	return s, func() *ExplainOp { return pl.render(counts) }
}

// EvalString compiles and evaluates src against d and serializes the
// result the way the paper prints query outputs.
func EvalString(d *core.Document, src string) (string, error) {
	q, err := Compile(src)
	if err != nil {
		return "", err
	}
	res, err := q.Eval(d)
	if err != nil {
		return "", err
	}
	return Serialize(res), nil
}
