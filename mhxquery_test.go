package mhxquery_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mhxquery"
	"mhxquery/internal/corpus"
)

func boethius(t *testing.T) *mhxquery.Document {
	t.Helper()
	xml := corpus.BoethiusXML()
	var hs []mhxquery.Hierarchy
	for _, name := range corpus.BoethiusHierarchies() {
		hs = append(hs, mhxquery.Hierarchy{Name: name, XML: xml[name]})
	}
	d, err := mhxquery.Parse(hs...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseAndBasics(t *testing.T) {
	d := boethius(t)
	if d.Text() != corpus.BoethiusText {
		t.Errorf("Text = %q", d.Text())
	}
	if got := d.Hierarchies(); len(got) != 4 || got[0] != "physical" {
		t.Errorf("Hierarchies = %v", got)
	}
	s := d.Stats()
	if s.Leaves != 16 || s.Elements != 16 || s.Hierarchies != 4 {
		t.Errorf("Stats = %+v", s)
	}
	if len(d.Leaves()) != 16 {
		t.Error("Leaves()")
	}
	l := d.Leaves()[3]
	if l.Kind() != "leaf" || l.Text() != "w" {
		t.Errorf("leaf 3 = %s %q", l.Kind(), l.Text())
	}
	if s, e := l.Span(); s != 14 || e != 15 {
		t.Errorf("leaf 3 span = [%d,%d)", s, e)
	}
}

func TestParseErrorsPublic(t *testing.T) {
	if _, err := mhxquery.Parse(); err == nil {
		t.Error("no hierarchies accepted")
	}
	if _, err := mhxquery.Parse(mhxquery.Hierarchy{Name: "a", XML: "<broken"}); err == nil {
		t.Error("bad XML accepted")
	}
	_, err := mhxquery.Parse(
		mhxquery.Hierarchy{Name: "a", XML: "<r>xy</r>"},
		mhxquery.Hierarchy{Name: "b", XML: "<r>xz</r>"},
	)
	if err == nil || !strings.Contains(err.Error(), "diverge") {
		t.Errorf("alignment error = %v", err)
	}
}

func TestQueryPublic(t *testing.T) {
	d := boethius(t)
	out, err := d.QueryString(`for $l in /descendant::line[overlapping::w[string(.) = 'singallice']]
return string($l)`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "gesceaftum unawendendne sin gallice sibbe gecynde þa" {
		t.Errorf("query = %q", out)
	}
}

func TestCompiledQueryReuse(t *testing.T) {
	q := mhxquery.MustCompile(`count(/descendant::w)`)
	if q.Source() == "" {
		t.Error("Source empty")
	}
	d := boethius(t)
	for i := 0; i < 3; i++ {
		res, err := q.Eval(d)
		if err != nil {
			t.Fatal(err)
		}
		if res.String() != "6" {
			t.Errorf("eval %d = %q", i, res.String())
		}
	}
}

func TestSequenceAccessors(t *testing.T) {
	d := boethius(t)
	res, err := d.Query(`(/descendant::dmg[1], "atom", 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("Len = %d", res.Len())
	}
	v0 := res.Item(0)
	if !v0.IsNode() || v0.Node().Name() != "dmg" || v0.Node().Hierarchy() != "damage" {
		t.Errorf("item 0 = %+v", v0)
	}
	if v0.Node().XML() != "<dmg>w</dmg>" {
		t.Errorf("item 0 XML = %s", v0.Node().XML())
	}
	if _, ok := v0.Node().Attr("none"); ok {
		t.Error("ghost attribute")
	}
	v1 := res.Item(1)
	if v1.IsNode() || v1.Text() != "atom" {
		t.Errorf("item 1 = %+v", v1)
	}
	if got := res.Strings(); got[2] != "2" {
		t.Errorf("Strings = %v", got)
	}
	// Spaces separate adjacent atomic items only, not node/atomic pairs.
	if res.Text() != "watom 2" {
		t.Errorf("Text = %q", res.Text())
	}
}

func TestCompileErrorPublic(t *testing.T) {
	if _, err := mhxquery.Compile(`for $x in`); err == nil {
		t.Error("bad query accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic")
		}
	}()
	mhxquery.MustCompile(`(((`)
}

func TestExportsAndSerialization(t *testing.T) {
	d := boethius(t)
	if !strings.Contains(d.DOT(), "digraph") {
		t.Error("DOT")
	}
	if !strings.Contains(d.LeafTable(), "gesceaftum") {
		t.Error("LeafTable")
	}
	xml, err := d.SerializeHierarchy("damage")
	if err != nil || xml != corpus.BoethiusDamage {
		t.Errorf("SerializeHierarchy = %q, %v", xml, err)
	}
	if _, err := d.SerializeHierarchy("nope"); err == nil {
		t.Error("unknown hierarchy serialized")
	}
}

func TestReadmeQuickstart(t *testing.T) {
	// The exact snippet from the package documentation must work.
	doc, err := mhxquery.Parse(
		mhxquery.Hierarchy{Name: "pages", XML: `<r><page>Hello wo</page><page>rld</page></r>`},
		mhxquery.Hierarchy{Name: "words", XML: `<r><w>Hello</w> <w>world</w></r>`},
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := doc.QueryString(`for $w in /descendant::w[overlapping::page] return string($w)`)
	if err != nil {
		t.Fatal(err)
	}
	// "world" starts on page 1 and ends on page 2: it overlaps a page
	// boundary, which no single-hierarchy XPath can express.
	if out != "world" {
		t.Errorf("quickstart = %q", out)
	}
}

func TestParseWithDTDValidation(t *testing.T) {
	const structDTD = `
<!ELEMENT r (#PCDATA | vline)*>
<!ELEMENT vline (#PCDATA | w)*>
<!ELEMENT w (#PCDATA)>`
	// The Boethius structure encoding validates against its DTD.
	_, err := mhxquery.Parse(
		mhxquery.Hierarchy{Name: "structure", XML: corpus.BoethiusStructure, DTD: structDTD},
	)
	if err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	// A document violating the DTD is rejected at Parse time.
	_, err = mhxquery.Parse(
		mhxquery.Hierarchy{Name: "structure", XML: `<r><w><vline>x</vline></w></r>`, DTD: structDTD},
	)
	if err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Errorf("invalid document accepted: %v", err)
	}
	// A broken DTD is rejected too.
	_, err = mhxquery.Parse(
		mhxquery.Hierarchy{Name: "structure", XML: `<r>x</r>`, DTD: `<!ELEMENT`},
	)
	if err == nil {
		t.Error("broken DTD accepted")
	}
}

func TestBinaryRoundTripPublic(t *testing.T) {
	d := boethius(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := mhxquery.ReadDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d2.QueryString(`for $w in /descendant::w[overlapping::line] return string($w)`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "singallice" {
		t.Errorf("query over loaded document = %q", out)
	}
	if _, err := mhxquery.ReadDocument(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage image accepted")
	}
}

func TestSelect(t *testing.T) {
	d := boethius(t)
	words, err := d.Select(`/descendant::w`)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 6 || words[0].Text() != "gesceaftum" || words[0].Hierarchy() != "structure" {
		t.Errorf("Select words = %d, first %q", len(words), words[0].Text())
	}
	// Extended axis straight from the path API.
	split, err := d.Select(`/descendant::w[overlapping::line]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(split) != 1 || split[0].Text() != "singallice" {
		t.Errorf("Select split = %v", split)
	}
	// Hierarchy-qualified leaf test: leaves covered by <dmg> text.
	dmgLeaves, err := d.Select(`/descendant::dmg/descendant::leaf()`)
	if err != nil {
		t.Fatal(err)
	}
	if len(dmgLeaves) != 4 { // w | de | space | þa
		t.Errorf("damage leaves = %d", len(dmgLeaves))
	}
	if _, err := d.Select(`1 + 1`); err == nil {
		t.Error("non-node Select accepted")
	}
	if _, err := d.Select(`/descendant::`); err == nil {
		t.Error("bad path accepted")
	}
}

func TestExplainPublicAPI(t *testing.T) {
	d, err := mhxquery.Parse(
		mhxquery.Hierarchy{Name: "pages", XML: `<r><page>Hello wo</page><page>rld</page></r>`},
		mhxquery.Hierarchy{Name: "words", XML: `<r><w>Hello</w> <w>world</w></r>`},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, plan, err := d.Explain(`/descendant::w`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || plan == nil || plan.Op != "query" {
		t.Fatalf("Explain: len=%d plan=%+v", res.Len(), plan)
	}
	var scan *mhxquery.PlanOp
	var walk func(op *mhxquery.PlanOp)
	walk = func(op *mhxquery.PlanOp) {
		if op.Op == "index-scan" {
			scan = op
		}
		for _, k := range op.Children {
			walk(k)
		}
	}
	walk(plan)
	if scan == nil || !scan.Index || scan.OutRows != 2 || scan.Calls != 1 {
		t.Fatalf("index-scan op = %+v", scan)
	}
	// The text rendering prints the worker stats from the structured
	// fields.
	scan.Workers, scan.Morsels = 2, 8
	if line := scan.String(); !strings.HasPrefix(line, "index-scan "+scan.Detail+" [index] ") ||
		!strings.HasSuffix(line, " workers=2 morsels=8\n") {
		t.Errorf("PlanOp.String = %q", line)
	}
	// So does the planner's estimate: EstRows, never Detail, carries it.
	if scan.EstRows == nil || strings.Contains(scan.Detail, "est=") ||
		!strings.Contains(scan.String(), fmt.Sprintf(" est=%d ", *scan.EstRows)) {
		t.Errorf("estimate: EstRows=%v Detail=%q String=%q", scan.EstRows, scan.Detail, scan.String())
	}

	// The collection-level Explain reaches the same machinery.
	c := mhxquery.NewCollection(mhxquery.CollectionOptions{})
	if _, err := c.Put("hello", d); err != nil {
		t.Fatal(err)
	}
	res, plan, err = c.Explain("hello", `count(/descendant::page)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "2" || plan == nil {
		t.Fatalf("collection Explain: res=%q plan=%v", res.String(), plan)
	}
	if st := c.PlanCacheStats(); st.Misses == 0 {
		t.Fatalf("plan cache untouched: %+v", st)
	}
}

func TestDocumentUpdatePublic(t *testing.T) {
	d, err := mhxquery.Parse(
		mhxquery.Hierarchy{Name: "pages", XML: `<r><page>Hello wo</page><page>rld</page></r>`},
		mhxquery.Hierarchy{Name: "words", XML: `<r><w>Hello</w> <w>world</w></r>`},
	)
	if err != nil {
		t.Fatal(err)
	}
	if d.Version() != 0 {
		t.Fatalf("fresh Version = %d", d.Version())
	}

	// Wrap the split word, rename it, and persist an analyze-string
	// overlay — one batch, one new version.
	nd, stats, err := d.Update(`
		insert node mark into (//w)[2],
		insert hierarchy "ells" from analyze-string(/, "ll")/child::m`)
	if err != nil {
		t.Fatal(err)
	}
	if nd.Version() != 1 || stats.Ops != 2 || stats.HierarchiesAdded != 1 {
		t.Fatalf("version=%d stats=%+v", nd.Version(), stats)
	}
	out, err := nd.QueryString(`string(//mark)`)
	if err != nil || out != "world" {
		t.Fatalf("mark = %q, %v", out, err)
	}
	out, err = nd.QueryString(`count(//m[overlapping::page or xancestor::page])`)
	if err != nil || out != "1" {
		t.Fatalf("persisted overlay vs pages = %q, %v", out, err)
	}
	// The old version is untouched.
	if out, err := d.QueryString(`count(//mark)`); err != nil || out != "0" {
		t.Fatalf("old version sees the mark: %q, %v", out, err)
	}
	// Errors keep codes and never produce a half-applied version.
	if _, _, err := nd.Update(`rename node //mark as "page"`); err == nil {
		t.Fatal("cross-hierarchy rename must fail")
	}
	if out, _ := nd.QueryString(`count(//mark)`); out != "1" {
		t.Fatalf("failed update mutated the document: %s", out)
	}
}
