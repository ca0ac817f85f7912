package xquery

import (
	stdctx "context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mhxquery/internal/corpus"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestExplainFLWORGolden locks the full lowered operator tree of a
// FLWOR query: EXPLAIN must render the whole query — clauses,
// predicates, calls — not collapse non-path expressions into opaque
// nodes.
func TestExplainFLWORGolden(t *testing.T) {
	q := MustCompile(`for $l in /descendant::line[xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
	                  where exists($l/overlapping::w)
	                  order by string-length(string($l)) descending
	                  return <hit n="{count($l/xdescendant::w)}">{string($l)}</hit>`)
	pl := q.PlanFor(corpus.MustBoethius())
	got, err := json.MarshalIndent(pl.Describe(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "explain_flwor.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("explain tree changed (run with -update to regenerate):\n%s", got)
	}
	// Structural spot checks, so the golden cannot silently regress to
	// opaque nodes.
	var ops []string
	var walk func(op *ExplainOp)
	walk = func(op *ExplainOp) {
		ops = append(ops, op.Op)
		for _, k := range op.Children {
			walk(k)
		}
	}
	walk(pl.Describe())
	for _, want := range []string{"flwor", "for", "where", "order-by", "return", "index-scan", "call", "compare", "element"} {
		found := false
		for _, op := range ops {
			if op == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("lowered tree lacks %q operator: %v", want, ops)
		}
	}
}

// TestStreamLimitStopsScan is the cardinality-observing proof of
// early exit: pulling 3 items from //w over a large document must
// leave the index scan having produced only those 3 items, not the
// whole run.
func TestStreamLimitStopsScan(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 5, Words: 600}).Document()
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`//w`)
	total, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(total) < 100 {
		t.Fatalf("fixture too small: %d words", len(total))
	}

	s, render := q.StreamExplain(nil, d, nil, nil)
	for i := 0; i < 3; i++ {
		if _, ok, err := s.Next(); err != nil || !ok {
			t.Fatalf("pull %d: ok=%v err=%v", i, ok, err)
		}
	}
	var scan *ExplainOp
	var walk func(op *ExplainOp)
	walk = func(op *ExplainOp) {
		if op.Op == "index-scan" {
			scan = op
		}
		for _, k := range op.Children {
			walk(k)
		}
	}
	walk(render())
	if scan == nil {
		t.Fatal("no index-scan operator in the plan")
	}
	if scan.OutRows != 3 {
		t.Fatalf("index scan produced %d rows after a 3-item pull; early exit is broken (total %d)", scan.OutRows, len(total))
	}
	// Draining the rest must still deliver the full result.
	rest, err := drainStream(s)
	if err != nil {
		t.Fatal(err)
	}
	if 3+len(rest) != len(total) {
		t.Fatalf("stream delivered %d items, want %d", 3+len(rest), len(total))
	}
}

// TestStreamCancel checks context cancellation: a runaway query stops
// with MHXQ0002 within a bounded number of items.
func TestStreamCancel(t *testing.T) {
	d := corpus.MustBoethius()
	ctx, cancel := stdctx.WithCancel(stdctx.Background())
	cancel()
	q := MustCompile(`count(1 to 100000000000)`)
	_, err := q.EvalContext(ctx, d, nil, nil)
	if err == nil {
		t.Fatal("canceled evaluation returned no error")
	}
	xe, ok := err.(*Error)
	if !ok || xe.Code != "MHXQ0002" {
		t.Fatalf("err = %v, want MHXQ0002", err)
	}

	s := q.Stream(ctx, d, nil, nil)
	if _, _, err := s.Next(); err == nil {
		t.Fatal("canceled stream yielded an item")
	}
}

// TestStreamEarlyErrorParity: a full drain of the stream must surface
// the same error the strict evaluation does.
func TestStreamErrorParity(t *testing.T) {
	d := corpus.MustBoethius()
	for _, src := range []string{
		`/descendant::w('nope')`,
		`//w[xdescendant::q('absent')]`,
		`for $x in //w return $x/child::w('nope')`,
	} {
		q := MustCompile(src)
		_, evalErr := q.Eval(d)
		_, streamErr := drainStream(q.Stream(nil, d, nil, nil))
		switch {
		case evalErr == nil && streamErr == nil:
		case evalErr != nil && streamErr != nil:
			if evalErr.(*Error).Code != streamErr.(*Error).Code {
				t.Errorf("%q: eval %v vs stream %v", src, evalErr, streamErr)
			}
		default:
			t.Errorf("%q: eval err=%v, stream err=%v", src, evalErr, streamErr)
		}
	}
}

// parityQueries are the paper and benchmark shapes the explain parity
// test adds to its generated queries: Queries I.1 and I.2, and the
// split, damaged and nested benchmark workloads.
var parityQueries = []string{
	`for $l in /descendant::line
  [xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
return string($l)`,
	`for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b> else $leaf
 , <br/> )`,
	`count(/descendant::w[overlapping::line])`,
	`count(/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg])`,
	`for $v in /descendant::vline
	 for $w in $v/child::w
	 where exists($w/overlapping::line)
	 return string($w)`,
}

// TestExplainStreamParity pins the path accounting of the two entry
// points: for every path, index-scan, chain-scan, axis-step and primary
// operator, Explain (strict evaluation) and a fully drained
// StreamExplain report the same calls, input rows and output rows.
func TestExplainStreamParity(t *testing.T) {
	docs := sweepDocs(t)
	g := &qgen{r: rand.New(rand.NewSource(20261017))}
	srcs := append([]string(nil), parityQueries...)
	for i := 0; i < 400; i++ {
		srcs = append(srcs, g.query())
	}
	pathOps := map[string]bool{"path": true, "index-scan": true, "chain-scan": true, "axis-step": true, "primary": true}
	compared := 0
	var compare func(src, at string, a, b *ExplainOp)
	compare = func(src, at string, a, b *ExplainOp) {
		at += "/" + a.Op
		if a.Op != b.Op || len(a.Children) != len(b.Children) {
			t.Fatalf("%q: tree shape diverged at %s", src, at)
		}
		if pathOps[a.Op] {
			compared++
			if a.Calls != b.Calls || a.InRows != b.InRows || a.OutRows != b.OutRows {
				t.Errorf("%q: %s %s: explain {%d %d %d}, stream {%d %d %d}", src, at, a.Detail,
					a.Calls, a.InRows, a.OutRows, b.Calls, b.InRows, b.OutRows)
			}
		}
		for i := range a.Children {
			compare(src, at, a.Children[i], b.Children[i])
		}
	}
	for _, src := range srcs {
		q := MustCompile(src)
		for _, name := range []string{"boethius", "gen"} {
			d := docs[name]
			_, plain, err := q.Explain(d, nil, nil)
			if err != nil {
				continue
			}
			s, render := q.StreamExplain(nil, d, nil, nil)
			if _, err := drainStream(s); err != nil {
				t.Errorf("%q (%s): stream err=%v, explain ok", src, name, err)
				continue
			}
			compare(src, name, plain, render())
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d path operators compared", compared)
	}
	t.Logf("%d path operators compared", compared)
}

// TestUndefinedVariableEveryRoute: a variable the query never binds is
// a static error (XPST0008) on every entry point, even where the
// engine would never evaluate the reference — [0] pulls nothing from
// its base, and the else branch of if (false()) never runs. A bound
// variable (by the query or by the caller) is no error.
func TestUndefinedVariableEveryRoute(t *testing.T) {
	d := corpus.MustBoethius()
	routes := []struct {
		name string
		run  func(q *Query, vars map[string]Seq) (Seq, error)
	}{
		{"eval", func(q *Query, vars map[string]Seq) (Seq, error) { return q.EvalWithVars(d, vars) }},
		{"stream", func(q *Query, vars map[string]Seq) (Seq, error) { return drainStream(q.Stream(nil, d, vars, nil)) }},
		{"explain", func(q *Query, vars map[string]Seq) (Seq, error) {
			s, _, err := q.Explain(d, vars, nil)
			return s, err
		}},
		{"analyze", func(q *Query, vars map[string]Seq) (Seq, error) {
			s, _, err := q.ExplainAnalyze(d, vars, nil)
			return s, err
		}},
		{"interpreter", func(q *Query, vars map[string]Seq) (Seq, error) {
			debugNaiveSteps = true
			defer func() { debugNaiveSteps = false }()
			return q.EvalWithVars(d, vars)
		}},
	}
	for _, src := range []string{`$A[0]`, `count($A[0])`, `if (false()) then $A else 1`} {
		q := MustCompile(src)
		for _, r := range routes {
			if _, err := r.run(q, nil); errCode(err) != "XPST0008" {
				t.Errorf("%s %q: err=%v, want XPST0008", r.name, src, err)
			}
		}
	}
	bound := MustCompile(`$A[0]`)
	for _, tc := range []struct {
		q    *Query
		vars map[string]Seq
	}{
		{MustCompile(`for $A in //w return $A[0]`), nil},
		{bound, map[string]Seq{"A": {1.0}}},
	} {
		for _, r := range routes {
			if got, err := r.run(tc.q, tc.vars); err != nil || len(got) != 0 {
				t.Errorf("%s %q: got %v err=%v, want ()", r.name, tc.q.Source(), got, err)
			}
		}
	}
}
