// Benchmarks regenerating every figure/example of the paper plus the
// quantitative tables P1–P16. Run:
//
//	go test -bench=. -benchmem
//
// Experiment index:
//
//	E1  BenchmarkFig1ParseEncodings      — parse the four Fig. 1 encodings
//	E2  BenchmarkFig2BuildKyGODDAG       — build the Fig. 2 KyGODDAG
//	E3  BenchmarkQueryI1                 — Query I.1 (split word, overlap)
//	E4  BenchmarkQueryI2                 — Query I.2 (damaged words)
//	E5  BenchmarkExample1AnalyzeString   — Definition 4, Example 1
//	E6  BenchmarkQueryII1                — Query II.1 (substring highlight)
//	E7  BenchmarkQueryIII1               — Query III.1 (match + restoration)
//	E6/E7 BenchmarkPaperQueryScaling/*   — Queries II.1 and III.1 at 1/10/100×
//	P1  BenchmarkBuildScaling/*          — KyGODDAG construction scaling
//	P2  BenchmarkAxes*/Reference         — interval vs Definition-1-literal axes
//	P3  BenchmarkDamagedWords*           — KyGODDAG vs fragmentation vs milestones
//	P4  BenchmarkAnalyzeStringScaling/*  — temp-hierarchy overlay cost
//	P5  BenchmarkParseThroughput/*       — document-centric parse throughput
//	P7  BenchmarkCollectionFanOut/*      — sequential vs parallel corpus fan-out
//	P8  BenchmarkCompileCache/*          — cold compile vs LRU cache hit
//	P9  BenchmarkPathPipeline/*          — order-aware path pipeline at 1/10/100× scale
//	P10 BenchmarkIndexedDescendant/*     — structural name index, //name steps at 1/10/100×
//	P14 BenchmarkParallelScan/*          — morsel-parallel index scan, 1/2/4/GOMAXPROCS workers
//
// scripts/bench.sh runs the evaluator-level subset (E3–E7, P9, P10)
// with -count and emits BENCH_eval.json, the recorded perf trajectory.
package mhxquery_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"mhxquery"
	"mhxquery/internal/collection"
	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
	"mhxquery/internal/fragment"
	"mhxquery/internal/slab"
	"mhxquery/internal/store"
	"mhxquery/internal/xmlparse"
	"mhxquery/internal/xquery"
)

// ---- E1/E2: Figure 1 and Figure 2 -----------------------------------------

func BenchmarkFig1ParseEncodings(b *testing.B) {
	xml := corpus.BoethiusXML()
	names := corpus.BoethiusHierarchies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			if _, err := xmlparse.Parse(xml[name], xmlparse.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig2BuildKyGODDAG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trees, err := corpus.BoethiusTrees()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Build(trees); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3–E7: the paper's queries -------------------------------------------

func benchQuery(b *testing.B, src, want string) {
	b.Helper()
	d := corpus.MustBoethius()
	q := xquery.MustCompile(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := q.Eval(d)
		if err != nil {
			b.Fatal(err)
		}
		if got := xquery.Serialize(res); got != want {
			b.Fatalf("got %q, want %q", got, want)
		}
	}
}

func BenchmarkQueryI1(b *testing.B) {
	benchQuery(b, `for $l in /descendant::line
  [xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
return string($l)`,
		"gesceaftum unawendendne sin gallice sibbe gecynde þa")
}

func BenchmarkQueryI2(b *testing.B) {
	benchQuery(b, `for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b> else $leaf
 , <br/> )`,
		"gesceaftum una<b>w</b>endendne sin<br/>gallice sibbe gecyn<b>de</b> <b>þa</b><br/>")
}

func BenchmarkExample1AnalyzeString(b *testing.B) {
	benchQuery(b, `for $w in /descendant::w[string(.) = 'unawendendne']
return serialize(analyze-string($w, ".*un<a>a</a>we.*"))`,
		`<res><m>un<a>a</a>we</m>ndendne</res>`)
}

// queryII1 and queryIII1 are the paper's Queries II.1 and III.1: every
// matching word gets its own analyze-string overlay hierarchy.
const queryII1 = `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return if ($n[self::m]) then <b>{string($n)}</b> else string($n)
  ,
  <br/>
)`

const queryIII1 = `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
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

func BenchmarkQueryII1(b *testing.B) {
	benchQuery(b, queryII1, "<b>unawe</b>ndendne<br/>")
}

func BenchmarkQueryIII1(b *testing.B) {
	benchQuery(b, queryIII1, "<i><b>unawe</b></i><b>ndendne</b><br/>")
}

// BenchmarkPaperQueryScaling runs Queries II.1 and III.1 on generated
// manuscripts at 1/10/100× the Figure 1 fixture. Each match creates an
// overlay hierarchy, so these rows show how overlay cost grows with the
// number of matches and the document's leaf count, which the 6-word
// fixture of BenchmarkQueryII1/III1 cannot. Seed 8 puts 1, 1 and 15
// matching words in the three sizes.
func BenchmarkPaperQueryScaling(b *testing.B) {
	for _, q := range []struct{ name, src string }{{"II1", queryII1}, {"III1", queryIII1}} {
		cq := xquery.MustCompile(q.src)
		for _, scale := range []struct {
			name  string
			words int
		}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
			c := corpus.Generate(corpus.Params{Seed: 8, Words: scale.words, DamageRate: 0.12, RestoreRate: 0.10})
			d, err := c.Document()
			if err != nil {
				b.Fatal(err)
			}
			res, err := cq.Eval(d)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.Run(q.name+"/"+scale.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
	}
}

// ---- P1: construction scaling ----------------------------------------------

func BenchmarkBuildScaling(b *testing.B) {
	for _, words := range []int{100, 1000, 10000} {
		c := corpus.Generate(corpus.Params{Seed: 1, Words: words})
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trees, err := c.Trees()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Build(trees); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- P2: axis evaluation, interval vs Definition-1-literal reference --------

func axisBenchDoc(b *testing.B, words int) *core.Document {
	b.Helper()
	c := corpus.Generate(corpus.Params{Seed: 2, Words: words, DamageRate: 0.15})
	d, err := c.Document()
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// impl selects one of the three extended-axis implementations: the
// indexed default, the O(N) interval scan, or the literal Definition 1
// set-based reference.
func benchAxis(b *testing.B, impl string, ax core.Axis, words int) {
	d := axisBenchDoc(b, words)
	h := d.HierarchyByName("structure")
	var targets []int
	for i, n := range h.Nodes {
		if n.Name == "w" {
			targets = append(targets, i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := h.Nodes[targets[i%len(targets)]]
		switch impl {
		case "indexed":
			d.Eval(ax, n)
		case "scan":
			d.EvalScan(ax, n)
		default:
			d.EvalRef(ax, n)
		}
	}
}

func BenchmarkAxesOverlappingIndexed(b *testing.B) {
	benchAxis(b, "indexed", core.AxisOverlapping, 500)
}
func BenchmarkAxesOverlappingScan(b *testing.B)      { benchAxis(b, "scan", core.AxisOverlapping, 500) }
func BenchmarkAxesOverlappingReference(b *testing.B) { benchAxis(b, "ref", core.AxisOverlapping, 500) }
func BenchmarkAxesXAncestorIndexed(b *testing.B)     { benchAxis(b, "indexed", core.AxisXAncestor, 500) }
func BenchmarkAxesXAncestorScan(b *testing.B)        { benchAxis(b, "scan", core.AxisXAncestor, 500) }
func BenchmarkAxesXAncestorReference(b *testing.B)   { benchAxis(b, "ref", core.AxisXAncestor, 500) }
func BenchmarkAxesXDescendantIndexed(b *testing.B) {
	benchAxis(b, "indexed", core.AxisXDescendant, 500)
}
func BenchmarkAxesXDescendantScan(b *testing.B)   { benchAxis(b, "scan", core.AxisXDescendant, 500) }
func BenchmarkAxesXFollowingIndexed(b *testing.B) { benchAxis(b, "indexed", core.AxisXFollowing, 500) }
func BenchmarkAxesXFollowingScan(b *testing.B)    { benchAxis(b, "scan", core.AxisXFollowing, 500) }

// ---- P3: the [6] comparison — damaged words over three representations -------

func damagedWorkload(b *testing.B, words int) (*core.Document, *corpus.Corpus) {
	b.Helper()
	c := corpus.Generate(corpus.Params{Seed: 3, Words: words, DamageRate: 0.12})
	d, err := c.Document()
	if err != nil {
		b.Fatal(err)
	}
	return d, c
}

func BenchmarkDamagedWordsKyGODDAG(b *testing.B) {
	for _, words := range []int{200, 1000, 5000} {
		d, c := damagedWorkload(b, words)
		want := len(c.Truth.DamagedWords)
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got := fragment.NativeDamagedWordIndices(d, "w", "dmg")
				if len(got) != want {
					b.Fatalf("damaged = %d, want %d", len(got), want)
				}
			}
		})
	}
}

func BenchmarkDamagedWordsFragmentation(b *testing.B) {
	for _, words := range []int{200, 1000, 5000} {
		d, c := damagedWorkload(b, words)
		want := len(c.Truth.DamagedWords)
		// The baseline stores ONE flat document; query time includes
		// chain reassembly and interval re-derivation, as in [6].
		flat := fragment.Fragment(d)
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fragment.AnnotateOffsets(flat)
				logical := fragment.ReassembleFragments(flat)
				got := fragment.DamagedWordIndices(logical["w"], logical["dmg"])
				if len(got) != want {
					b.Fatalf("damaged = %d, want %d", len(got), want)
				}
			}
		})
	}
}

func BenchmarkDamagedWordsMilestone(b *testing.B) {
	for _, words := range []int{200, 1000, 5000} {
		d, c := damagedWorkload(b, words)
		want := len(c.Truth.DamagedWords)
		flat, err := fragment.Milestone(d, "physical")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fragment.AnnotateOffsets(flat)
				logical := fragment.ReassembleMilestones(flat)
				got := fragment.DamagedWordIndices(logical["w"], logical["dmg"])
				if len(got) != want {
					b.Fatalf("damaged = %d, want %d", len(got), want)
				}
			}
		})
	}
}

// ---- P4: analyze-string overlay scaling --------------------------------------

func BenchmarkAnalyzeStringScaling(b *testing.B) {
	for _, words := range []int{100, 1000, 5000} {
		c := corpus.Generate(corpus.Params{Seed: 4, Words: words})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		q := xquery.MustCompile(`count(analyze-string(/descendant::vline[1], "e")/descendant::m)`)
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- P5: parse throughput ------------------------------------------------------

func BenchmarkParseThroughput(b *testing.B) {
	for _, words := range []int{1000, 10000} {
		c := corpus.Generate(corpus.Params{Seed: 5, Words: words})
		xml := c.XML["structure"]
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.SetBytes(int64(len(xml)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := xmlparse.Parse(xml, xmlparse.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- P9: order-aware path pipeline ------------------------------------------

// pathPipelineQueries are multi-step path workloads exercising the step
// evaluation pipeline: multi-context steps, extended axes inside
// predicates, full leaf scans and positional selection.
var pathPipelineQueries = []struct{ name, src string }{
	{"damaged", `count(/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg])`},
	{"split", `count(/descendant::w[overlapping::line])`},
	{"leafscan", `count(/descendant::vline/child::w/descendant::leaf())`},
	{"firstword", `count(/descendant::vline/child::w[1])`},
}

// BenchmarkPathPipeline measures multi-step path evaluation over the
// four-hierarchy generated manuscript at 1×, 10× and 100× the scale of
// the paper's Boethius fixture (6 words).
func BenchmarkPathPipeline(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 9, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range pathPipelineQueries {
			cq := xquery.MustCompile(q.src)
			res, err := cq.Eval(d)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.Run(scale.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
	}
}

// ---- P10: structural name index, //name-selective steps ----------------------

// indexedDescendantQueries are name-selective descendant workloads: the
// shapes the structural name index turns from full-GODDAG walks into
// O(matches) run scans.
var indexedDescendantQueries = []struct{ name, src string }{
	{"w", `count(/descendant::w)`},
	{"line", `count(/descendant::line)`},
	{"abbrev", `count(//w)`},
	{"subtree", `count(/descendant::vline/descendant::w)`},
}

// BenchmarkIndexedDescendant measures //name-leading path evaluation
// over the four-hierarchy generated manuscript at 1×, 10× and 100× the
// scale of the paper's Boethius fixture (6 words).
func BenchmarkIndexedDescendant(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 10, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range indexedDescendantQueries {
			cq := xquery.MustCompile(q.src)
			res, err := cq.Eval(d)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.Run(scale.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
	}
}

// ---- P11: early exit and FLWOR joins through the cursor engine ---------------

// earlyExitQueries are the O(answer) workloads: the consumer needs one
// item (or one existence bit) out of a result the strict engine would
// materialize in full.
var earlyExitQueries = []struct{ name, src string }{
	{"firstw", `(//w)[1]`},
	{"existsw", `exists(//w)`},
	{"existsdmg", `exists(//dmg)`},
	{"firstpred", `(//w[ancestor::vline])[1]`},
	{"somequant", `some $w in //w satisfies $w/ancestor::vline`},
}

// BenchmarkEarlyExit measures early-exit query shapes at 1×, 10× and
// 100× the Boethius scale. Under cursor execution these stay O(answer):
// the 100× cost should track the 1× cost, not the document size.
func BenchmarkEarlyExit(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 11, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range earlyExitQueries {
			cq := xquery.MustCompile(q.src)
			res, err := cq.Eval(d)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.Run(scale.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
	}
}

// flworJoinQueries exercise FLWOR binding pipelines: nested for clauses
// whose bindings stream from index scans, a where filter, and an
// order-by that forces tuple materialization.
var flworJoinQueries = []struct{ name, src string }{
	{"nested", `for $v in /descendant::vline
	            for $w in $v/child::w
	            where exists($w/overlapping::line)
	            return string($w)`},
	{"ordered", `for $w in //w
	             order by string-length(string($w)) descending
	             return string($w)`},
}

// BenchmarkFLWORJoin measures FLWOR evaluation through the lowered
// plan at 1×, 10× and 100× scale.
func BenchmarkFLWORJoin(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 12, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range flworJoinQueries {
			cq := xquery.MustCompile(q.src)
			res, err := cq.Eval(d)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.Run(scale.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
	}
}

// ---- P12: copy-on-write updates vs whole-document reparse ---------------------

// BenchmarkUpdateSmallEdit measures a single-node edit — renaming one
// damage-span element, the canonical annotate-a-damage-report change —
// through the copy-on-write update engine at 1×, 10× and 100× the
// Boethius scale, against BenchmarkUpdateReparse: the reparse+reindex
// of the whole document that a store without in-place updates would
// pay for the same change. The edit copies only the touched hierarchy
// (structural sharing for the other three), patches its name index
// incrementally, and shares the boundary array and leaf structs
// (patching only the per-version text→leaf edge table), so its cost
// tracks the touched hierarchy, not the document: at 100× the edit
// must be ≥10× cheaper than the reparse. BenchmarkUpdateLargestHier
// is the worst-case counterpart: the same edit aimed at the largest
// hierarchy, whose node slab dominates the copy.
func BenchmarkUpdateSmallEdit(b *testing.B) {
	benchUpdateRename(b, "damage", "dmg")
}

// BenchmarkUpdateLargestHier renames one w element: the touched
// hierarchy (structure) holds roughly half the document's nodes, the
// upper bound of the copy-on-write cost for a single-node edit.
func BenchmarkUpdateLargestHier(b *testing.B) {
	benchUpdateRename(b, "structure", "w")
}

func benchUpdateRename(b *testing.B, hier, elem string) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 13, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		// Warm every name index: the benchmark measures the
		// incremental-maintenance path, not lazy first builds.
		for _, h := range d.Hiers {
			h.IndexRuns()
		}
		var target *dom.Node
		for _, n := range d.HierarchyByName(hier).Nodes {
			if n.Kind == dom.Element && n.Name == elem {
				target = n // last one: worst case for run patching
			}
		}
		if target == nil {
			b.Fatalf("no %s element in %s", elem, hier)
		}
		edits := []core.Edit{{Kind: core.EditRename, Target: target, Name: elem + "x"}}
		b.Run(scale.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nd, _, err := d.Apply(edits)
				if err != nil {
					b.Fatal(err)
				}
				if nd.Rev != d.Rev+1 {
					b.Fatal("no new version")
				}
			}
		})
	}
}

// BenchmarkUpdateReparse is the from-scratch alternative to
// BenchmarkUpdateSmallEdit: re-parse all four encodings and rebuild
// the KyGODDAG (what Collection.Put of a re-encoded document costs).
func BenchmarkUpdateReparse(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 13, Words: scale.words, DamageRate: 0.12})
		b.Run(scale.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trees, err := c.Trees()
				if err != nil {
					b.Fatal(err)
				}
				d, err := core.Build(trees)
				if err != nil {
					b.Fatal(err)
				}
				// Reindex too: the read path depends on the name
				// indexes the edit would have preserved.
				for _, h := range d.Hiers {
					h.IndexRuns()
				}
			}
		})
	}
}

// BenchmarkUpdateExpression measures the full update-language path
// (compile + target evaluation + apply) for the same single-node edit.
func BenchmarkUpdateExpression(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 13, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, h := range d.Hiers {
			h.IndexRuns()
		}
		b.Run(scale.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				u, err := xquery.CompileUpdate(`rename node (//w)[1] as "wx"`)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := u.Apply(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdateDurable measures the end-to-end durable update path —
// compile + apply + log append + publish, fsync included — through the
// write-ahead log (small appended record, group commit, background
// snapshots) at 1×/10×/100× the Boethius scale.
func BenchmarkUpdateDurable(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 13, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("WAL/"+scale.name, func(b *testing.B) {
			coll, err := collection.Open(b.TempDir(), collection.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer coll.Close()
			if _, err := coll.Put("bench", d); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Renaming to the same name keeps the document a fixed
				// point, so the target exists on every iteration while
				// each update still commits a new durable version.
				if _, _, err := coll.Update("bench", `rename node (//w)[1] as "w"`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- P14: morsel-driven parallel intra-query execution -------------------------

// parallelScanQuery is the heavy parallel-eligible workload: the
// damaged-word selection filter (three extended-axis probes per word),
// drained in full so the entire candidate stream is filtered. Its
// predicate is position-independent, so the planner marks the fused
// index scan parallel.
const parallelScanQuery = `//w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]`

// BenchmarkParallelScan measures the same full-drain scan at 1×, 10×
// and 100× scale with 1, 2, 4 and GOMAXPROCS intra-query workers.
// Engagement is thresholded (parallelism only pays past a few hundred
// candidates), so the 1× and 10× rows coincide across worker counts —
// that is the point: small scans never pay scheduling overhead. The
// speedup at 100× tracks physical core count; on a single-core host
// all worker counts coincide there too.
func BenchmarkParallelScan(b *testing.B) {
	defer xquery.SetQueryWorkers(0)
	workerSet := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		workerSet = append(workerSet, n)
	}
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 14, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		cq := xquery.MustCompile(parallelScanQuery)
		xquery.SetQueryWorkers(1)
		res, err := cq.Eval(d)
		if err != nil {
			b.Fatal(err)
		}
		want := xquery.Serialize(res)
		for _, w := range workerSet {
			b.Run(fmt.Sprintf("%s/w%d", scale.name, w), func(b *testing.B) {
				xquery.SetQueryWorkers(w)
				defer xquery.SetQueryWorkers(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
	}
}

// ---- public API end-to-end ----------------------------------------------------

func BenchmarkPublicAPIEndToEnd(b *testing.B) {
	xml := corpus.BoethiusXML()
	var hs []mhxquery.Hierarchy
	for _, name := range corpus.BoethiusHierarchies() {
		hs = append(hs, mhxquery.Hierarchy{Name: name, XML: xml[name]})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := mhxquery.Parse(hs...)
		if err != nil {
			b.Fatal(err)
		}
		out, err := d.QueryString(`count(/descendant::w[overlapping::line])`)
		if err != nil || out != "1" {
			b.Fatalf("out=%q err=%v", out, err)
		}
	}
}

// ---- P6: binary store vs reparse --------------------------------------------

func BenchmarkStoreLoad(b *testing.B) {
	c := corpus.Generate(corpus.Params{Seed: 6, Words: 2000})
	d, err := c.Document()
	if err != nil {
		b.Fatal(err)
	}
	var img bytes.Buffer
	if err := store.Encode(&img, d); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(img.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Decode(bytes.NewReader(img.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreReparse(b *testing.B) {
	c := corpus.Generate(corpus.Params{Seed: 6, Words: 2000})
	size := 0
	for _, x := range c.XML {
		size += len(x)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trees, err := c.Trees()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Build(trees); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- P7: collection fan-out, sequential vs parallel ---------------------------

// collectionFixture builds a corpus of nDocs generated documents.
func collectionFixture(b *testing.B, nDocs, workers int) *mhxquery.Collection {
	b.Helper()
	c := mhxquery.NewCollection(mhxquery.CollectionOptions{Workers: workers})
	for i := 0; i < nDocs; i++ {
		g := corpus.Generate(corpus.Params{Seed: uint64(i + 1), Words: 400, DamageRate: 0.12})
		names := make([]string, 0, len(g.XML))
		for name := range g.XML {
			names = append(names, name)
		}
		sort.Strings(names)
		hs := make([]mhxquery.Hierarchy, len(names))
		for j, name := range names {
			hs[j] = mhxquery.Hierarchy{Name: name, XML: g.XML[name]}
		}
		d, err := mhxquery.Parse(hs...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Put(fmt.Sprintf("doc%02d", i), d); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// fanOutQuery is Query I.2's damaged-word selection, a representative
// multihierarchical workload (tree + extended axes per word).
const fanOutQuery = `count(/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg])`

// BenchmarkCollectionFanOut compares sequential evaluation against the
// bounded worker pool. The speedup tracks the machine's core count: on
// a single-core host the two modes coincide (the pool adds only
// scheduling overhead), on an N-core host the parallel mode approaches
// min(N, docs, workers)×.
func BenchmarkCollectionFanOut(b *testing.B) {
	for _, nDocs := range []int{1, 4, 16} {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"sequential", 1}, {"parallel", 4}} {
			b.Run(fmt.Sprintf("docs=%d/%s", nDocs, mode.name), func(b *testing.B) {
				c := collectionFixture(b, nDocs, mode.workers)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					results, err := c.QueryAll(fanOutQuery)
					if err != nil {
						b.Fatal(err)
					}
					if len(results) != nDocs {
						b.Fatalf("got %d results, want %d", len(results), nDocs)
					}
					for _, r := range results {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
			})
		}
	}
}

// ---- P8: compiled-query cache, cold compile vs LRU hit ------------------------

func BenchmarkCompileCache(b *testing.B) {
	src := `for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b> else $leaf
 , <br/> )`
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xquery.Compile(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		c := collection.New(collection.Options{})
		if _, err := c.Compile(src); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Compile(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkStoreEncode(b *testing.B) {
	c := corpus.Generate(corpus.Params{Seed: 6, Words: 2000})
	d, err := c.Document()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var img bytes.Buffer
		if err := store.Encode(&img, d); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- P15: cold open of a slab snapshot image ----------------------------------

// openColdFixture encodes the scaled generated manuscript as a snapshot
// image and writes it to disk for the mmap leg; it also returns the
// heap-built source document.
func openColdFixture(b *testing.B, words int) (d *core.Document, v3img []byte, v3path string) {
	b.Helper()
	d, err := corpus.Generate(corpus.Params{Seed: 14, Words: words, DamageRate: 0.12}).Document()
	if err != nil {
		b.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := store.EncodeSnapshot(&v3, d, 1); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "doc.mhx")
	if err := os.WriteFile(path, v3.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	return d, v3.Bytes(), path
}

// BenchmarkOpenCold measures snapshot open latency at 1×/10×/100× the
// Boethius fixture: the slab open validates checksums, installs the
// eager layers and materializes nothing — from a byte slice and from a
// memory-mapped file.
func BenchmarkOpenCold(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		_, v3img, v3path := openColdFixture(b, scale.words)
		b.Run(scale.name+"/v3bytes", func(b *testing.B) {
			b.SetBytes(int64(len(v3img)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := store.OpenSnapshotBytes(v3img); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(scale.name+"/v3mmap", func(b *testing.B) {
			b.SetBytes(int64(len(v3img)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Map and unmap inside the iteration: the opened document
				// is discarded before the mapping goes away, and pairing
				// the two keeps b.N iterations from exhausting the map
				// table (real opens retain the mapping for process life).
				data, mapped, err := slab.MapFile(v3path)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := store.OpenSnapshotBytes(data); err != nil {
					b.Fatal(err)
				}
				if err := slab.Unmap(data, mapped); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpenFirstQuery measures time-to-first-answer: open the
// snapshot and run one indexed count, paying lazy materialization on
// the first query.
func BenchmarkOpenFirstQuery(b *testing.B) {
	cq := xquery.MustCompile(`count(//w)`)
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"100x", 600}} {
		src, v3img, _ := openColdFixture(b, scale.words)
		res, err := cq.Eval(src)
		if err != nil {
			b.Fatal(err)
		}
		want := xquery.Serialize(res)
		b.Run(scale.name+"/v3slab", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, _, err := store.OpenSnapshotBytes(v3img)
				if err != nil {
					b.Fatal(err)
				}
				res, err := cq.Eval(d)
				if err != nil {
					b.Fatal(err)
				}
				if got := xquery.Serialize(res); got != want {
					b.Fatalf("got %q, want %q", got, want)
				}
			}
		})
	}
}

// ---- P16: cost-based plan choice ----------------------------------------------

// BenchmarkPlanChoice measures the query shapes the synopsis-driven
// cost model steers — selectivity-ordered predicates, size-ordered
// FLWOR/quantifier bindings — at 1/10/100× scale, plus the cold
// compile+plan path itself (parse, lowering, synopsis-based estimation)
// so planning overhead stays on the recorded perf trajectory.
func BenchmarkPlanChoice(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 20}, {"10x", 200}, {"100x", 2000}} {
		c := corpus.Generate(corpus.Params{Seed: 17, Words: scale.words, DamageRate: 0.25, RestoreRate: 0.25})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range []struct {
			name, src string
			maxWords  int // 0 = every scale; the quantifier product is
			// O(words²) with no early exit, so it stops at 10×
		}{
			{"predorder", `count(/descendant::w[descendant::zzz][child::node()])`, 0},
			{"flwororder", `count(for $a in /descendant::w for $b in /descendant::dmg return 1)`, 0},
			{"quantorder", `some $a in /descendant::w, $b in /descendant::line satisfies exists(child::zzz)`, 200},
		} {
			if q.maxWords != 0 && scale.words > q.maxWords {
				continue
			}
			cq := xquery.MustCompile(q.src)
			res, err := cq.Eval(d)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.Run(scale.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
		b.Run(scale.name+"/plancold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := xquery.MustCompile(`/descendant::vline/child::w[descendant::text()][descendant::zzz]`)
				if q.PlanFor(d) == nil {
					b.Fatal("no plan")
				}
			}
		})
	}
}
