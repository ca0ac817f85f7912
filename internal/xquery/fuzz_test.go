package xquery

import (
	stdctx "context"
	"math/rand"
	"testing"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
)

// fuzzDoc is the document plans are lowered against during fuzzing.
var fuzzDoc = corpus.MustBoethius()

// FuzzParse fuzzes the lexer/parser/lowering front end: Compile must
// never panic, whatever the input. (Evaluation is deliberately out of
// scope — arbitrary queries can be made unboundedly expensive, e.g.
// huge ranges; the differential sweeps cover evaluation.) CI runs this
// as a non-gating smoke: go test -fuzz=FuzzParse -fuzztime=30s.
func FuzzParse(f *testing.F) {
	for _, seed := range diffQueries {
		f.Add(seed)
	}
	f.Add(`for $x at $p in //w order by string($x) descending return <a b="{$x}">{$x, 1 to 3}</a>`)
	f.Add(`some $x in /a satisfies every $y in $x satisfies $y eq $x`)
	f.Add(`element {concat("a","b")} {attribute c {1}, comment {"d"}}`)
	f.Add(`/descendant::w('физ,damage')[position() <= 2]/xancestor::node()`)
	f.Add("`\x00\xff<")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Compile(src)
		if err != nil {
			return
		}
		// Lowering must also be total for everything that parses.
		_ = q.PlanFor(fuzzDoc).Describe()
	})
}

// FuzzUpdate fuzzes the update-expression parser AND applier: neither
// may panic, every error must carry an error code, and the source
// document must come through an Apply — successful or not — bit-for-bit
// untouched. Applies run under a short deadline since target
// expressions are arbitrary queries. CI runs this as a non-gating
// smoke: go test -fuzz=FuzzUpdate -fuzztime=30s.
func FuzzUpdate(f *testing.F) {
	f.Add(`delete node (//dmg)[1]`)
	f.Add(`rename node //w as "word", insert node seg into (//vline)[1]`)
	f.Add(`replace value of node (//w)[2] with "xyz"`)
	f.Add(`insert hierarchy "h" from analyze-string(/, "e")/child::m`)
	f.Add(`insert node p before (//w)[1], insert node q after (//w)[1]`)
	f.Add(`delete hierarchy "damage"`)
	f.Add("delete node\x00")
	f.Fuzz(func(t *testing.T, src string) {
		u, err := CompileUpdate(src)
		if err != nil {
			if xe, ok := err.(*Error); !ok || xe.Code == "" {
				t.Fatalf("CompileUpdate(%q): uncoded error %v", src, err)
			}
			return
		}
		ctx, cancel := stdctx.WithTimeout(stdctx.Background(), 2*time.Second)
		defer cancel()
		before := fuzzDoc.Signature()
		nd, _, err := u.ApplyContext(ctx, fuzzDoc, nil)
		if err != nil {
			if xe, ok := err.(*Error); !ok || xe.Code == "" {
				t.Fatalf("Apply(%q): uncoded error %v", src, err)
			}
		} else if nd != nil && nd != fuzzDoc && nd.Rev != fuzzDoc.Rev+1 {
			t.Fatalf("Apply(%q): new version Rev = %d, want %d", src, nd.Rev, fuzzDoc.Rev+1)
		}
		if fuzzDoc.Signature() != before {
			t.Fatalf("Apply(%q) mutated the source document", src)
		}
	})
}

// FuzzPathRoutes checks the evaluation routes against each other on the
// 20-word sweep manuscript: Eval and a full Stream drain must agree on
// the items and the error code, and the cursor engine must agree with
// the interpreter oracle (debugNaiveSteps). The engine may succeed where
// the oracle raises a dynamic error — XQuery's errors-and-optimization
// rule lets it skip operands it does not need, as in (dmg('x')/())[0] —
// but when the engine fails the oracle must fail with the same code.
// Every forced plan (planKnobs: chain, nochain, noindex, noreorder,
// noindex with noreorder) must give the cost-based plan's items and
// error code. Each route
// runs under a 200 ms deadline; an input that hits it on any route
// (MHXQ0002) is skipped. CI runs this as a non-gating smoke:
// go test -fuzz=FuzzPathRoutes -fuzztime=30s.
func FuzzPathRoutes(f *testing.F) {
	g := &qgen{r: rand.New(rand.NewSource(20261017))}
	for i := 0; i < 64; i++ {
		f.Add(g.query())
	}
	for _, src := range parityQueries {
		f.Add(src)
	}
	f.Add(`for $w in /descendant::w[matches(string(.), ".*e.*")]
return (for $n in analyze-string($w, ".*e.*")/child::node()
        return if ($n[self::m]) then <b>{string($n)}</b> else string($n), <br/>)`)
	f.Add(`(dmg('x')/())[0]`)
	f.Add(`/child::vline/child::w/descendant::leaf()`)
	f.Add(`(/child::vline/child::w)[last()]`)
	d := sweepDocs(f)["gen"]
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Compile(src)
		if err != nil {
			return
		}
		run := func(q *Query, stream, oracle bool) (Seq, error) {
			ctx, cancel := stdctx.WithTimeout(stdctx.Background(), 200*time.Millisecond)
			defer cancel()
			debugNaiveSteps = oracle
			defer func() { debugNaiveSteps = false }()
			if stream {
				return drainStream(q.Stream(ctx, d, nil, nil))
			}
			return q.EvalContext(ctx, d, nil, nil)
		}
		// Plans are cached per query, so each knob compiles afresh.
		forced := func(k planKnob) (Seq, error) {
			forcePlan, forceNoReorder = k.force, k.noReorder
			defer func() { forcePlan, forceNoReorder = "", false }()
			fq, err := Compile(src)
			if err != nil {
				t.Fatalf("[%s] %q: compile: %v", k.name, src, err)
			}
			return run(fq, false, false)
		}
		got, gotErr := run(q, false, false)
		streamed, streamErr := run(q, true, false)
		ref, refErr := run(q, false, true)
		codes := []string{errCode(gotErr), errCode(streamErr), errCode(refErr)}
		knobs := planKnobs[1:]
		knobGot := make([]Seq, len(knobs))
		knobErr := make([]error, len(knobs))
		for i, k := range knobs {
			knobGot[i], knobErr[i] = forced(k)
			codes = append(codes, errCode(knobErr[i]))
		}
		for _, code := range codes {
			if code == "MHXQ0002" {
				t.Skip("deadline exceeded")
			}
		}
		for i, k := range knobs {
			if codes[3+i] != codes[0] {
				t.Fatalf("%q: [%s] err=%v, [cost] err=%v", src, k.name, knobErr[i], gotErr)
			}
			if gotErr == nil && !sameResult(d, got, knobGot[i]) {
				t.Fatalf("%q:\n  [%s]: %s\n  [cost]: %s", src, k.name, Serialize(knobGot[i]), Serialize(got))
			}
		}
		if codes[0] != codes[1] {
			t.Fatalf("%q: eval err=%v, stream err=%v", src, gotErr, streamErr)
		}
		if gotErr == nil && !sameResult(d, got, streamed) {
			t.Fatalf("%q:\n  eval:   %s\n  stream: %s", src, Serialize(got), Serialize(streamed))
		}
		switch {
		case gotErr != nil:
			if codes[2] != codes[0] {
				t.Fatalf("%q: engine err=%v, oracle err=%v", src, gotErr, refErr)
			}
		case refErr == nil && !sameResult(d, got, ref):
			t.Fatalf("%q:\n  engine: %s\n  oracle: %s", src, Serialize(got), Serialize(ref))
		}
	})
}

// errCode is the XQuery error code of err ("" for nil, "?" for an
// error without one).
func errCode(err error) string {
	if err == nil {
		return ""
	}
	if xe, ok := err.(*Error); ok {
		return xe.Code
	}
	return "?"
}

// sameResult compares two evaluations' results: equal serializations
// (so NaN matches NaN) and the same node identity wherever both hold a
// node of d. Constructed and overlay nodes are fresh per evaluation and
// compare by serialization alone.
func sameResult(d *core.Document, a, b Seq) bool {
	if len(a) != len(b) || Serialize(a) != Serialize(b) {
		return false
	}
	for i := range a {
		na, aok := a[i].(*dom.Node)
		nb, bok := b[i].(*dom.Node)
		if aok != bok || aok && (d.Owns(na) || d.Owns(nb)) && na != nb {
			return false
		}
	}
	return true
}
