package xquery_test

import (
	"testing"

	"mhxquery/internal/corpus"
	"mhxquery/internal/xquery"
)

// This file contains the golden reproductions of Section 4 of the paper:
// every query the paper prints, with the outputs it prints (typo-corrected
// where the print is inconsistent; each correction is noted at its query).

func evalStr(t *testing.T, src string) string {
	t.Helper()
	d := corpus.MustBoethius()
	out, err := xquery.EvalString(d, src)
	if err != nil {
		t.Fatalf("eval: %v\nquery: %s", err, src)
	}
	return out
}

// QueryI1 is the paper's Query I.1: "Find and display lines containing
// the word singallice." The word is split across both physical lines, so
// only the overlapping axis finds it in either.
const QueryI1 = `for $l in /descendant::line
  [xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
return string($l)`

func TestPaperQueryI1(t *testing.T) {
	got := evalStr(t, QueryI1)
	// The paper prints the two line strings run together across its own
	// line break: "gesceaftum unawendendne sin" + "gallice sibbe gecynde Da".
	want := "gesceaftum unawendendne sin gallice sibbe gecynde þa"
	if got != want {
		t.Errorf("I.1 = %q, want %q", got, want)
	}
}

// QueryI2Strict is the paper's Query I.2 exactly as printed (typo-fixed):
// leaves under both a <w> and a <dmg> are highlighted.
const QueryI2Strict = `for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b> else $leaf
 , <br/> )`

func TestPaperQueryI2Strict(t *testing.T) {
	got := evalStr(t, QueryI2Strict)
	// Strict reading: only the actually damaged letters inside words are
	// bold ("w" in unawendendne; "de" of gecynde; "þa").
	want := "gesceaftum una<b>w</b>endendne sin<br/>gallice sibbe gecyn<b>de</b> <b>þa</b><br/>"
	if got != want {
		t.Errorf("I.2 strict = %q, want %q", got, want)
	}
}

// QueryI2WordLevel highlights whole damaged words, leaf by leaf — this is
// the output the paper actually prints for I.2.
const QueryI2WordLevel = `for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]) then <b>{$leaf}</b> else $leaf
 , <br/> )`

func TestPaperQueryI2WordLevel(t *testing.T) {
	got := evalStr(t, QueryI2WordLevel)
	// Paper prints: gesceaftum <b>una</b><b>w</b><b>endendne</b>sin<br/>
	//               gallice sibbe <b>gecyn</b><b>de</b><b>Da</b><br/>
	// (with the inter-word spaces typeset away); our output keeps the
	// space leaves, which are not part of any <w>.
	want := "gesceaftum <b>una</b><b>w</b><b>endendne</b> sin<br/>gallice sibbe <b>gecyn</b><b>de</b> <b>þa</b><br/>"
	if got != want {
		t.Errorf("I.2 word-level = %q, want %q", got, want)
	}
}

// TestPaperExample1 reproduces Definition 4's Example 1 byte-exactly:
// analyze-string(<w>unawendendne</w>, ".*un<a>a</a>we.*") yields
// <res><m>un<a>a</a>we</m>ndendne</res>.
func TestPaperExample1(t *testing.T) {
	got := evalStr(t, `for $w in /descendant::w[string(.) = 'unawendendne']
return serialize(analyze-string($w, ".*un<a>a</a>we.*"))`)
	want := `<res><m>un<a>a</a>we</m>ndendne</res>`
	if got != want {
		t.Errorf("Example 1 = %q, want %q", got, want)
	}
}

// QueryII1 is the paper's Query II.1 (typo-corrected: `for`, the
// matches() parenthesis, iterating child::node() with a self::m test —
// the printed `$n/parent::m` tests the parent of a child of $res, which
// is never <m>).
const QueryII1 = `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return if ($n[self::m]) then <b>{string($n)}</b> else string($n)
  ,
  <br/>
)`

func TestPaperQueryII1(t *testing.T) {
	got := evalStr(t, QueryII1)
	want := "<b>unawe</b>ndendne<br/>" // byte-exact paper output
	if got != want {
		t.Errorf("II.1 = %q, want %q", got, want)
	}
}

// QueryIII1MatchLevel highlights whole matches and italicizes matches that
// were (partly) restored — this granularity reproduces the paper's printed
// output for III.1 byte-exactly. The hierarchy-qualified name test
// res('restoration') disambiguates the editorial <res> markup from the
// <res> wrapper that analyze-string itself creates (the paper overloads
// the name).
const QueryIII1MatchLevel = `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return
    if ($n[self::m][xancestor::res('restoration') or xdescendant::res('restoration') or overlapping::res('restoration')])
    then <i><b>{string($n)}</b></i>
    else <b>{string($n)}</b>
  ,
  <br/>
)`

func TestPaperQueryIII1MatchLevel(t *testing.T) {
	got := evalStr(t, QueryIII1MatchLevel)
	want := "<i><b>unawe</b></i><b>ndendne</b><br/>" // byte-exact paper output
	if got != want {
		t.Errorf("III.1 match-level = %q, want %q", got, want)
	}
}

// QueryIII1LeafLevel is the formal reading of the printed query: iterate
// the leaves of the analyze-string result, italicize+bold leaves inside
// both <m> and the editorial restoration, bold the remaining match
// leaves. The restoration boundary (after "una") and the damage boundary
// (the letter "w") split the match into finer leaves than the paper's
// idealized output shows.
const QueryIII1LeafLevel = `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $leaf in $res/descendant::leaf()
  return
    if ($leaf/xancestor::m and $leaf/xancestor::res('restoration')) then <i><b>{$leaf}</b></i>
    else if ($leaf/xancestor::m) then <b>{$leaf}</b>
    else string($leaf)
  ,
  <br/>
)`

func TestPaperQueryIII1LeafLevel(t *testing.T) {
	got := evalStr(t, QueryIII1LeafLevel)
	want := "<i><b>una</b></i><b>w</b><b>e</b>ndendne<br/>"
	if got != want {
		t.Errorf("III.1 leaf-level = %q, want %q", got, want)
	}
}

// TestTempHierarchyIsEvaluationLocal checks Definition 4(5): the
// temporary hierarchies exist only during one evaluation.
func TestTempHierarchyIsEvaluationLocal(t *testing.T) {
	d := corpus.MustBoethius()
	q := xquery.MustCompile(`let $r := analyze-string(/descendant::w[1], "ge") return name($r)`)
	if _, err := q.Eval(d); err != nil {
		t.Fatal(err)
	}
	if d.HierarchyByName("rest") != nil {
		t.Fatal("temporary hierarchy leaked into the base document")
	}
	// And the same query evaluates again cleanly (no "rest already
	// registered" error).
	if _, err := q.Eval(d); err != nil {
		t.Fatalf("second evaluation: %v", err)
	}
}

// TestAnalyzeStringTwiceInOneQuery checks that multiple temp hierarchies
// coexist within one evaluation (rest, rest2, …).
func TestAnalyzeStringTwiceInOneQuery(t *testing.T) {
	got := evalStr(t, `for $w in /descendant::w[position() <= 2]
return (
  let $r := analyze-string($w, "n")
  return string(count($r/descendant::m))
, " ")`)
	// gesceaftum has no "n"; unawendendne has four.
	want := "0   4  "
	if got != want {
		t.Errorf("two analyze-string = %q, want %q", got, want)
	}
}
