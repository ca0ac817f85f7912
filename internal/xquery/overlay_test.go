package xquery

import (
	"fmt"
	"testing"

	"mhxquery/internal/dom"
)

// TestOverlayLeafQueriesMatchOracle runs queries that reach an overlay's
// leaves after one or more analyze-string calls, so the overlay leaf
// layers are built on demand mid-evaluation. The cursor engine (strict
// and streamed) must return the same nodes, and fail with the same error
// codes, as the interpreter oracle (debugNaiveSteps), which steps with
// the full axis results.
func TestOverlayLeafQueriesMatchOracle(t *testing.T) {
	const three = `let $a := analyze-string((//w)[1], "e")
let $b := analyze-string((//w)[2], "n")
let $c := analyze-string((//line)[1], "i")
return `
	queries := []string{
		`analyze-string((//w)[2], "e")/descendant::leaf()`,
		`for $w in //w[position() <= 3] return analyze-string($w, "e")/descendant::leaf()`,
		`for $m in analyze-string((//line)[1], "e|n")/child::m return $m/xdescendant::node()`,
		`for $m in analyze-string((//line)[1], "e|n")/child::m return $m/xdescendant::text()`,
		`for $m in analyze-string((//w)[2], "^..")/child::m return ($m/xancestor::node(), $m/overlapping::node())`,
		three + `//leaf()`,
		three + `$a/xfollowing::leaf()`,
		three + `(//w)[2]/xfollowing::leaf()`,
		three + `$b/xpreceding::node()`,
		// The parents of leaves an overlay split: their base parents plus
		// the covering text nodes of each overlay, in hierarchy order.
		three + `for $l in $c/descendant::leaf() return ($l/parent::node(), hierarchy($l))`,
		three + `for $l in (//w)[1]/descendant::leaf() return $l/ancestor::node()`,
		// Unknown hierarchies still fail where the oracle fails: the
		// leaf-free candidate sets keep every node that reaches the
		// hierarchy check.
		`analyze-string((//line)[1], "e")/xdescendant::w('nosuch')`,
		`analyze-string((//w)[1], "e")/descendant::leaf('nosuch')`,
		`analyze-string((//line)[1], "e")/child::m[1]/xfollowing::*('nosuch')`,
	}
	for name, d := range sweepDocs(t) {
		for _, src := range queries {
			q := MustCompile(src)
			fast, fastErr := q.Eval(d)
			streamed, streamErr := drainStream(q.Stream(nil, d, nil, nil))
			debugNaiveSteps = true
			ref, refErr := q.Eval(d)
			debugNaiveSteps = false

			if fastErr != nil || refErr != nil || streamErr != nil {
				fe, fok := fastErr.(*Error)
				re, rok := refErr.(*Error)
				se, sok := streamErr.(*Error)
				if !fok || !rok || !sok || fe.Code != re.Code || se.Code != re.Code {
					t.Errorf("%s: %q: errors differ: eval %v, stream %v, oracle %v", name, src, fastErr, streamErr, refErr)
				}
				continue
			}
			// Each evaluation builds its own overlays, so nodes are compared
			// by hierarchy, position and span rather than by identity.
			want := nodeSigs(ref)
			if got := nodeSigs(fast); got != want {
				t.Errorf("%s: %q\n  cursor: %s\n  oracle: %s", name, src, got, want)
			}
			if got := nodeSigs(streamed); got != want {
				t.Errorf("%s: %q\n  stream: %s\n  oracle: %s", name, src, got, want)
			}
		}
	}
}

// nodeSigs renders a result so that equal nodes of separate evaluations
// compare equal: kind, hierarchy, name, preorder (or leaf) position and
// span; atomic items as themselves.
func nodeSigs(s Seq) string {
	out := fmt.Sprint(len(s), ":")
	for _, it := range s {
		if n, ok := it.(*dom.Node); ok {
			out += fmt.Sprintf(" %v/%s/%s#%d[%d,%d)", n.Kind, n.Hier, n.Name, n.Ord, n.Start, n.End)
		} else {
			out += fmt.Sprintf(" %q", fmt.Sprint(it))
		}
	}
	return out
}
