package xquery

import (
	"fmt"
	"math/rand"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
)

// The seeded random differential sweep: generated FLWOR, predicate and
// quantifier queries must evaluate node-identically — with identical
// error points — through the cursor engine (both its strict eval and
// full-drain stream routes) and the AST interpreter oracle
// (debugNaiveSteps). Together with TestPlanDifferentialRandomPaths
// (plan_test.go, random path shapes) this is the property suite the
// whole-query lowering rests on.

// qgen generates random queries from a seeded source. Generated queries
// always parse; evaluation may legitimately error (unknown hierarchies,
// type errors), and then both engines must fail with the same code.
type qgen struct{ r *rand.Rand }

func (g *qgen) pick(ss ...string) string { return ss[g.r.Intn(len(ss))] }

func (g *qgen) name() string {
	return g.pick("w", "line", "vline", "res", "dmg", "zzz")
}

func (g *qgen) hier() string {
	return g.pick("physical", "verse", "restoration", "damage", "structure", "nope")
}

func (g *qgen) axis() string {
	return g.pick(
		"child", "descendant", "descendant-or-self", "self",
		"parent", "ancestor", "ancestor-or-self",
		"following", "preceding", "following-sibling", "preceding-sibling",
		"xdescendant", "xancestor", "xfollowing", "xpreceding",
		"overlapping", "preceding-overlapping", "following-overlapping",
	)
}

func (g *qgen) test() string {
	switch g.r.Intn(8) {
	case 0:
		return "*"
	case 1:
		return "text()"
	case 2:
		return "node()"
	case 3:
		return "leaf()"
	case 4:
		return g.name() + "('" + g.hier() + "')"
	default:
		return g.name()
	}
}

// step emits one axis step, with a predicate at shrinking probability.
func (g *qgen) step(depth int) string {
	s := g.axis() + "::" + g.test()
	if depth > 0 && g.r.Intn(3) == 0 {
		s += "[" + g.pred(depth-1) + "]"
	}
	return s
}

// path emits an absolute or variable-rooted path of 1–3 steps.
func (g *qgen) path(depth int, varName string) string {
	n := 1 + g.r.Intn(3)
	p := ""
	for i := 0; i < n; i++ {
		p += "/" + g.step(depth)
	}
	if varName != "" && g.r.Intn(2) == 0 {
		return "$" + varName + p
	}
	if g.r.Intn(4) == 0 {
		return "//" + g.test() + p
	}
	return p
}

// pred emits one predicate expression.
func (g *qgen) pred(depth int) string {
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprint(1 + g.r.Intn(4))
	case 1:
		return "last()"
	case 2:
		return fmt.Sprintf("position() <= %d", 1+g.r.Intn(3))
	case 3:
		return fmt.Sprintf("string-length(string(.)) > %d", g.r.Intn(6))
	case 4:
		return fmt.Sprintf("string(.) = '%s'", g.pick("singallice", "folc", "a", ""))
	case 5:
		if depth > 0 {
			return g.relPath(depth-1) + " or " + g.relPath(depth-1)
		}
		return "position() = 1"
	case 6:
		if depth > 0 {
			return "exists(" + g.relPath(depth-1) + ")"
		}
		return "true()"
	default:
		return g.relPath(depth)
	}
}

// relPath emits a relative path of 1–2 steps (predicate shape).
func (g *qgen) relPath(depth int) string {
	p := g.step(depth)
	if g.r.Intn(2) == 0 {
		p += "/" + g.step(depth)
	}
	return p
}

// flwor emits a FLWOR expression.
func (g *qgen) flwor(depth int) string {
	v := g.pick("x", "y")
	q := "for $" + v
	if g.r.Intn(4) == 0 {
		q += " at $p"
	}
	q += " in " + g.path(depth, "")
	inner := v
	if g.r.Intn(3) == 0 {
		w := v + "2"
		q += " for $" + w + " in " + g.path(depth-1, v)
		inner = w
	}
	if g.r.Intn(3) == 0 {
		q += " let $l := " + g.pick("string($"+inner+")", "count($"+inner+"/child::node())")
	}
	if g.r.Intn(2) == 0 {
		q += " where " + g.pick(
			"exists($"+inner+"/"+g.step(0)+")",
			"string-length(string($"+inner+")) > 2",
			"$"+inner+"/"+g.step(0),
		)
	}
	if g.r.Intn(3) == 0 {
		q += " order by " + g.pick("string($"+inner+")", "string-length(string($"+inner+"))")
		if g.r.Intn(2) == 0 {
			q += " descending"
		}
	}
	q += " return " + g.pick(
		"$"+inner,
		"string($"+inner+")",
		"($"+inner+", '|')",
		"$"+inner+"/"+g.step(0),
	)
	return q
}

// quant emits a quantified expression.
func (g *qgen) quant(depth int) string {
	v := g.pick("q", "z")
	return g.pick("some", "every") + " $" + v + " in " + g.path(depth, "") +
		" satisfies " + g.pick(
		"exists($"+v+"/"+g.step(0)+")",
		"string-length(string($"+v+")) > 1",
		"$"+v+"/"+g.step(0),
	)
}

// query emits one top-level query.
func (g *qgen) query() string {
	switch g.r.Intn(6) {
	case 0:
		return g.flwor(2)
	case 1:
		return g.quant(2)
	case 2:
		return g.pick("count", "exists", "empty") + "(" + g.path(2, "") + ")"
	case 3:
		return "(" + g.path(2, "") + ")[" + g.pred(1) + "]"
	case 4:
		return "if (" + g.quant(1) + ") then " + g.flwor(1) + " else " + g.path(1, "")
	default:
		return g.path(2, "")
	}
}

// sweepDocs are the documents the sweep runs against: the Boethius
// fixture plus one generated manuscript with damage overlap.
func sweepDocs(t testing.TB) map[string]*core.Document {
	t.Helper()
	d, err := corpus.Generate(corpus.Params{Seed: 7, Words: 20, DamageRate: 0.3, RestoreRate: 0.3}).Document()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*core.Document{
		"boethius": corpus.MustBoethius(),
		"gen":      d,
	}
}

// TestSweepFLWORPredicatesQuantifiers is the ≥200-case seeded sweep.
func TestSweepFLWORPredicatesQuantifiers(t *testing.T) {
	docs := sweepDocs(t)
	g := &qgen{r: rand.New(rand.NewSource(20260729))}
	const cases = 300
	compiled := 0
	for i := 0; i < cases; i++ {
		src := g.query()
		q, err := Compile(src)
		if err != nil {
			t.Fatalf("case %d: generated query does not parse: %q: %v", i, src, err)
		}
		compiled++
		for name, d := range docs {
			fast, fastErr := q.Eval(d)
			streamed, streamErr := drainStream(q.Stream(nil, d, nil, nil))

			debugNaiveSteps = true
			ref, refErr := q.Eval(d)
			debugNaiveSteps = false

			if (fastErr == nil) != (refErr == nil) {
				t.Errorf("case %d (%s): %q\n  cursor err=%v\n  oracle err=%v", i, name, src, fastErr, refErr)
				continue
			}
			if fastErr != nil {
				fe, fok := fastErr.(*Error)
				re, rok := refErr.(*Error)
				if !fok || !rok || fe.Code != re.Code {
					t.Errorf("case %d (%s): %q: error codes differ: %v vs %v", i, name, src, fastErr, refErr)
				}
				if (streamErr == nil) || streamErr.(*Error).Code != fe.Code {
					t.Errorf("case %d (%s): %q: stream error %v, eval error %v", i, name, src, streamErr, fastErr)
				}
				continue
			}
			if streamErr != nil {
				t.Errorf("case %d (%s): %q: stream err=%v, eval ok", i, name, src, streamErr)
				continue
			}
			if !sameItems(fast, ref) {
				t.Errorf("case %d (%s): %q\n  cursor: %s\n  oracle: %s", i, name, src, Serialize(fast), Serialize(ref))
			}
			if !sameItems(fast, streamed) {
				t.Errorf("case %d (%s): %q\n  eval:   %s\n  stream: %s", i, name, src, Serialize(fast), Serialize(streamed))
			}
		}
	}
	if compiled < 200 {
		t.Fatalf("only %d cases compiled; the sweep needs at least 200", compiled)
	}
}
