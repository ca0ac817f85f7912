package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
	"mhxquery/internal/xmlparse"
)

// boethiusLeaves is the exact leaf partition of the Figure 1/2 fixture.
var boethiusLeaves = []string{
	"gesceaftum", " ", "una", "w", "endendne", " ", "s", "in",
	"gallice", " ", "sibbe", " ", "gecyn", "de", " ", "þa",
}

func TestBuildBoethiusLeafPartition(t *testing.T) {
	d := corpus.MustBoethius()
	if d.Text != corpus.BoethiusText {
		t.Fatalf("base text = %q", d.Text)
	}
	var got []string
	for _, l := range d.Leaves {
		got = append(got, l.Data)
	}
	if !reflect.DeepEqual(got, boethiusLeaves) {
		t.Fatalf("leaves = %q, want %q", got, boethiusLeaves)
	}
	// Leaves concatenate to S.
	if strings.Join(got, "") != d.Text {
		t.Fatal("leaves do not concatenate to S")
	}
}

func TestBuildBoethiusStats(t *testing.T) {
	d := corpus.MustBoethius()
	s := d.Stats()
	if s.Hierarchies != 4 {
		t.Errorf("hierarchies = %d", s.Hierarchies)
	}
	// physical: 2 lines; structure: 3 vlines + 6 w; restoration: 3 res;
	// damage: 2 dmg → 16 elements.
	if s.Elements != 16 {
		t.Errorf("elements = %d, want 16", s.Elements)
	}
	if s.Leaves != 16 {
		t.Errorf("leaves = %d, want 16", s.Leaves)
	}
	if s.LeafEdges <= s.Leaves {
		t.Errorf("leaf edges = %d, expected > %d (multiple hierarchies per leaf)", s.LeafEdges, s.Leaves)
	}
}

func TestLeafParentsPerHierarchy(t *testing.T) {
	d := corpus.MustBoethius()
	// Leaf "w" (index 3) is covered by all four hierarchies: line text,
	// word text, plain restoration text, dmg text.
	leaf := d.Leaves[3]
	if leaf.Data != "w" {
		t.Fatalf("leaf 3 = %q", leaf.Data)
	}
	var hiers []string
	for _, p := range d.LeafParents(leaf) {
		if p.Kind != dom.Text {
			t.Errorf("leaf parent kind = %v", p.Kind)
		}
		hiers = append(hiers, p.Hier)
	}
	want := []string{"physical", "structure", "restoration", "damage"}
	if !reflect.DeepEqual(hiers, want) {
		t.Errorf("leaf parents hierarchies = %v, want %v", hiers, want)
	}
}

func TestBuildErrors(t *testing.T) {
	parse := func(s string) *dom.Node { return xmlparse.MustParse(s) }
	cases := []struct {
		name  string
		trees []core.NamedTree
	}{
		{"empty", nil},
		{"nil root", []core.NamedTree{{Name: "a"}}},
		{"different roots", []core.NamedTree{
			{Name: "a", Root: parse(`<r>x</r>`)},
			{Name: "b", Root: parse(`<q>x</q>`)},
		}},
		{"misaligned", []core.NamedTree{
			{Name: "a", Root: parse(`<r>xy</r>`)},
			{Name: "b", Root: parse(`<r>xz</r>`)},
		}},
		{"shared vocabulary", []core.NamedTree{
			{Name: "a", Root: parse(`<r><x>q</x></r>`)},
			{Name: "b", Root: parse(`<r><x>q</x></r>`)},
		}},
		{"duplicate hierarchy names", []core.NamedTree{
			{Name: "a", Root: parse(`<r><x>q</x></r>`)},
			{Name: "a", Root: parse(`<r><y>q</y></r>`)},
		}},
	}
	for _, tc := range cases {
		if _, err := core.Build(tc.trees); err == nil {
			t.Errorf("%s: Build should fail", tc.name)
		}
	}
}

func TestLeafRangeAndLeavesOf(t *testing.T) {
	d := corpus.MustBoethius()
	h := d.HierarchyByName("structure")
	if h == nil {
		t.Fatal("missing structure hierarchy")
	}
	var w2 *dom.Node
	for _, n := range h.Nodes {
		if n.Kind == dom.Element && n.Name == "w" && n.TextContent() == "unawendendne" {
			w2 = n
		}
	}
	if w2 == nil {
		t.Fatal("w2 not found")
	}
	lo, hi := d.LeafRange(w2)
	if lo != 2 || hi != 5 {
		t.Errorf("leaves(w2) = [%d,%d), want [2,5)", lo, hi)
	}
	var texts []string
	for _, l := range d.LeavesOf(w2) {
		texts = append(texts, l.Data)
	}
	if !reflect.DeepEqual(texts, []string{"una", "w", "endendne"}) {
		t.Errorf("leaves of w2 = %v", texts)
	}
	// Root covers everything.
	lo, hi = d.LeafRange(d.Root)
	if lo != 0 || hi != len(d.Leaves) {
		t.Errorf("leaves(root) = [%d,%d)", lo, hi)
	}
}

func TestRootChildrenAndOwns(t *testing.T) {
	d := corpus.MustBoethius()
	rc := d.RootChildren()
	// physical: 2 lines; structure: 3 vlines; restoration: 3 res + 2
	// interleaved texts; damage: 2 dmg + 2 texts = 14 top-level nodes.
	if len(rc) != 14 {
		t.Errorf("root children = %d, want 14", len(rc))
	}
	for _, c := range rc {
		if c.Parent != d.Root {
			t.Errorf("top node %s has wrong parent", c.Name)
		}
		if !d.Owns(c) {
			t.Errorf("Owns(%s) = false", c.Name)
		}
	}
	if !d.Owns(d.Root) {
		t.Error("Owns(root) = false")
	}
	if !d.Owns(d.Leaves[0]) {
		t.Error("Owns(leaf) = false")
	}
	if d.Owns(dom.NewElement("alien")) {
		t.Error("Owns(alien) = true")
	}
}

func TestNodeOrderDefinition3(t *testing.T) {
	d := corpus.MustBoethius()
	// Root first.
	for _, h := range d.Hiers {
		for _, n := range h.Nodes {
			if dom.Compare(d.Root, n) >= 0 {
				t.Fatalf("root not first vs %s", n.Name)
			}
		}
	}
	// Within a hierarchy: preorder.
	h := d.HierarchyByName("structure")
	for i := 1; i < len(h.Nodes); i++ {
		if dom.Compare(h.Nodes[i-1], h.Nodes[i]) >= 0 {
			t.Fatalf("hierarchy order violated at %d", i)
		}
	}
	// Across hierarchies: registration order.
	phys := d.HierarchyByName("physical").Nodes
	if dom.Compare(phys[len(phys)-1], h.Nodes[0]) >= 0 {
		t.Error("physical nodes must precede structure nodes")
	}
	// Leaves last.
	if dom.Compare(h.Nodes[0], d.Leaves[0]) >= 0 {
		t.Error("hierarchy nodes must precede leaves")
	}
}

func TestAddHierarchyOverlay(t *testing.T) {
	d := corpus.MustBoethius()
	baseLeaves := len(d.Leaves)
	baseHiers := len(d.Hiers)

	// A temp hierarchy covering "unawe" = bytes [11,16).
	res := dom.NewElement("tmpres")
	res.Start, res.End = 11, 16
	txt := dom.NewText("unawe")
	txt.Start, txt.End = 11, 16
	res.AppendChild(txt)

	od, err := d.AddHierarchy("rest", res, true)
	if err != nil {
		t.Fatal(err)
	}
	// An overlay builds its leaf layer lazily; Materialize builds it
	// before od.Leaves is read directly, as for frozen documents.
	od.Materialize()
	// The base document is untouched.
	if len(d.Leaves) != baseLeaves || len(d.Hiers) != baseHiers {
		t.Fatal("base document mutated by overlay")
	}
	if d.HierarchyByName("rest") != nil {
		t.Fatal("base document sees overlay hierarchy")
	}
	// The overlay has one more hierarchy, a new boundary at 16, leaves
	// re-partitioned.
	if od.HierarchyByName("rest") == nil || !od.HierarchyByName("rest").Temp {
		t.Fatal("overlay missing temp hierarchy")
	}
	if len(od.Leaves) != baseLeaves+1 {
		t.Errorf("overlay leaves = %d, want %d", len(od.Leaves), baseLeaves+1)
	}
	var texts []string
	for _, l := range od.LeavesOf(res) {
		texts = append(texts, l.Data)
	}
	if !reflect.DeepEqual(texts, []string{"una", "w", "e"}) {
		t.Errorf("overlay leaves of temp root = %v", texts)
	}
	// Shared root: same pointer, children include the temp root only in
	// the overlay.
	if od.Root != d.Root {
		t.Error("overlay should share the root node")
	}
	if len(od.RootChildren()) != len(d.RootChildren())+1 {
		t.Error("overlay root children should include temp hierarchy top")
	}
	// Base document is still valid: its LeavesOf still works.
	if got := strings.Join(leafTexts(d.LeavesOf(d.Root)), ""); got != d.Text {
		t.Error("base leaves broken after overlay")
	}
}

func leafTexts(ls []*dom.Node) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l.Data
	}
	return out
}

func TestAddHierarchyErrors(t *testing.T) {
	d := corpus.MustBoethius()
	ok := dom.NewElement("x")
	ok.Start, ok.End = 0, 5
	if _, err := d.AddHierarchy("", ok, true); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := d.AddHierarchy("physical", ok, true); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := d.AddHierarchy("t", nil, true); err == nil {
		t.Error("nil top accepted")
	}
	bad := dom.NewElement("x")
	bad.Start, bad.End = 5, 99999
	if _, err := d.AddHierarchy("t", bad, true); err == nil {
		t.Error("out-of-range span accepted")
	}
}

func TestSerializeHierarchyRoundTrip(t *testing.T) {
	d := corpus.MustBoethius()
	for name, want := range corpus.BoethiusXML() {
		got, err := d.Serialize(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("serialize(%s) = %s, want %s", name, got, want)
		}
	}
	if _, err := d.Serialize("nope"); err == nil {
		t.Error("unknown hierarchy serialized")
	}
}

func TestDOTAndLeafTable(t *testing.T) {
	d := corpus.MustBoethius()
	dot := d.DOT()
	for _, want := range []string{"digraph kygoddag", "cluster_0", "physical", "dmg", "style=dashed"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	table := d.LeafTable()
	for _, want := range []string{"gesceaftum", "leaf", "damage", "dmg1"} {
		if !strings.Contains(table, want) {
			t.Errorf("LeafTable missing %q", want)
		}
	}
	labels := d.NodeLabels()
	if labels[d.Root] != "r" {
		t.Errorf("root label = %q", labels[d.Root])
	}
	src := d.BoundarySources()
	if len(src[0]) == 0 {
		t.Error("boundary 0 has no sources")
	}
}

func TestSortDoc(t *testing.T) {
	d := corpus.MustBoethius()
	h := d.HierarchyByName("structure")
	nodes := []*dom.Node{h.Nodes[3], d.Leaves[0], h.Nodes[0], d.Root, h.Nodes[0]}
	sorted := core.SortDoc(nodes)
	if len(sorted) != 4 {
		t.Fatalf("dedupe failed: %d nodes", len(sorted))
	}
	if sorted[0] != d.Root || sorted[len(sorted)-1] != d.Leaves[0] {
		t.Error("SortDoc order wrong")
	}
	for i := 1; i < len(sorted); i++ {
		if dom.Compare(sorted[i-1], sorted[i]) >= 0 {
			t.Error("SortDoc not sorted")
		}
	}
}

// TestOverlayLayoutConcurrent reads a chain of three lazy overlays from
// eight goroutines at once, mixing reads that leave the leaf layer
// unbuilt with ones that build it; run with -race this verifies that the
// layout gate orders the build before every leaf read. Every goroutine
// must see the same results.
func TestOverlayLayoutConcurrent(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 5, Words: 40, DamageRate: 0.2}).Document()
	if err != nil {
		t.Fatal(err)
	}
	words := d.HierarchyByName("structure").Nodes
	od := d
	var tops []*dom.Node
	for _, w := range words {
		if w.Name != "w" || w.End-w.Start < 3 {
			continue
		}
		res := dom.NewElement("res")
		res.Start, res.End = w.Start, w.End
		m := dom.NewElement("m")
		m.Start, m.End = w.Start+1, w.Start+2
		txt := dom.NewText(d.Text[m.Start:m.End])
		txt.Start, txt.End = m.Start, m.End
		m.AppendChild(txt)
		res.AppendChild(m)
		if od, err = od.AddHierarchy(fmt.Sprintf("rest%d", len(tops)), res, true); err != nil {
			t.Fatal(err)
		}
		if tops = append(tops, res); len(tops) == 3 {
			break
		}
	}
	read := func() string {
		var b strings.Builder
		for _, top := range tops {
			m := top.Children[0]
			fmt.Fprint(&b, od.OrdinalSpace(), len(od.AppendAxisNoLeaves(nil, core.AxisXDescendant, top)),
				len(od.Eval(core.AxisOverlapping, m)), len(od.Eval(core.AxisXAncestor, m)), ";")
			leaves := od.Eval(core.AxisXDescendant, top)
			for _, l := range od.LeavesOf(m) {
				ord, ok := od.OrdinalOf(l)
				fmt.Fprint(&b, len(leaves), ord, ok, len(od.LeafParents(l)), od.Owns(l), ";")
			}
		}
		return b.String()
	}
	got := make([]string, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = read()
		}(g)
	}
	wg.Wait()
	want := read()
	for g, s := range got {
		if s != want {
			t.Errorf("goroutine %d read %q, want %q", g, s, want)
		}
	}
}
