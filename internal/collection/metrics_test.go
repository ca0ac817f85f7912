package collection

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mhxquery/internal/corpus"
)

// TestMetricsCatalog checks that ordinary collection traffic populates
// every metric family the README catalogs, and that the Prometheus
// encoding of the registry carries them.
func TestMetricsCatalog(t *testing.T) {
	c := New(Options{Workers: 4})
	for i := 0; i < 4; i++ {
		if _, err := c.Put(fmt.Sprintf("doc%d", i), genDoc(t, uint64(i+1), 40)); err != nil {
			t.Fatal(err)
		}
	}
	// Same query twice: first compile+plan miss, then hits.
	for i := 0; i < 2; i++ {
		if _, err := c.QueryAll(`count(//w)`, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Update("doc0", `delete node (//w)[1]`); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.ExplainAnalyzeDoc(context.Background(), "doc1", `//w`); err != nil {
		t.Fatal(err)
	}

	snap := c.Metrics().Snapshot()
	if snap["mhx_query_seconds_count"] < 9 { // 2 fan-outs x 4 docs + 1 analyze
		t.Errorf("query histogram count = %v, want >= 9", snap["mhx_query_seconds_count"])
	}
	if snap["mhx_update_commit_seconds_count"] != 1 {
		t.Errorf("update histogram count = %v, want 1", snap["mhx_update_commit_seconds_count"])
	}
	if snap[`mhx_cache_requests_total{cache="compile",result="hit"}`] < 1 ||
		snap[`mhx_cache_requests_total{cache="compile",result="miss"}`] < 1 {
		t.Errorf("compile cache counters not populated: %v", snap)
	}
	if snap[`mhx_cache_requests_total{cache="plan",result="hit"}`] < 1 ||
		snap[`mhx_cache_requests_total{cache="plan",result="miss"}`] < 1 {
		t.Errorf("plan cache counters not populated: %v", snap)
	}
	if snap["mhx_documents"] != 4 {
		t.Errorf("mhx_documents = %v, want 4", snap["mhx_documents"])
	}
	if snap["mhx_nameindex_builds_total"] < 1 {
		t.Errorf("name-index build counter = %v, want >= 1", snap["mhx_nameindex_builds_total"])
	}
	// Gauges return to zero once the fan-out completes.
	if snap["mhx_fanout_queue_depth"] != 0 || snap["mhx_fanout_busy_workers"] != 0 {
		t.Errorf("fan-out gauges nonzero at rest: %v", snap)
	}

	var sb strings.Builder
	if err := c.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, family := range []string{
		"mhx_query_seconds", "mhx_update_commit_seconds", "mhx_cache_requests_total",
		"mhx_fanout_queue_depth", "mhx_fanout_busy_workers", "mhx_documents",
		"mhx_nameindex_builds_total", "mhx_nameindex_build_seconds_total",
		"mhx_index_maintenance_total", "mhx_overlay_hierarchies_total", "mhx_overlay_layouts_total",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("scrape missing family %s", family)
		}
	}
	// Cache stats agree between the legacy accessors and the registry.
	cs := c.CacheStats()
	if float64(cs.Hits) != snap[`mhx_cache_requests_total{cache="compile",result="hit"}`] {
		t.Errorf("compile hits diverge: CacheStats %d vs registry %v", cs.Hits,
			snap[`mhx_cache_requests_total{cache="compile",result="hit"}`])
	}
	ps := c.PlanCacheStats()
	if float64(ps.Hits) != snap[`mhx_cache_requests_total{cache="plan",result="hit"}`] {
		t.Errorf("plan hits diverge: PlanCacheStats %d vs registry %v", ps.Hits,
			snap[`mhx_cache_requests_total{cache="plan",result="hit"}`])
	}
}

// TestMetricsRace hammers the registry from concurrent fan-outs,
// updates and scrapes; under -race this is the proof the observability
// layer adds no data races to the query paths.
func TestMetricsRace(t *testing.T) {
	c := New(Options{Workers: 4})
	for i := 0; i < 3; i++ {
		if _, err := c.Put(fmt.Sprintf("doc%d", i), genDoc(t, uint64(i+7), 24)); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 8
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := c.QueryAll(fmt.Sprintf(`count(//w[%d >= 0])`, g), ""); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, _, err := c.Update("doc0", `delete node (//w)[1]`); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*4; i++ {
			var sb strings.Builder
			if err := c.Metrics().WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	snap := c.Metrics().Snapshot()
	if got := snap["mhx_query_seconds_count"]; got < 3*rounds*3 {
		t.Errorf("query count = %v, want >= %d", got, 3*rounds*3)
	}
	if got := snap["mhx_update_commit_seconds_count"]; got != rounds {
		t.Errorf("update count = %v, want %d", got, rounds)
	}
}

// TestOverlayMetrics checks the overlay counters on /metrics: the
// paper's Queries II.1 and III.1 create one analyze-string overlay per
// matching word but never reach an overlay leaf, so they build no
// overlay leaf layer; a query that steps to an overlay's leaves builds
// exactly one.
func TestOverlayMetrics(t *testing.T) {
	c := New(Options{Workers: 1})
	d, err := corpus.Generate(corpus.Params{Seed: 8, Words: 600, DamageRate: 0.12, RestoreRate: 0.10}).Document()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("ms", d); err != nil {
		t.Fatal(err)
	}
	counts := func() (hiers, layouts float64) {
		snap := c.Metrics().Snapshot()
		return snap["mhx_overlay_hierarchies_total"], snap["mhx_overlay_layouts_total"]
	}
	const wordQ = `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return `
	for name, src := range map[string]string{
		"II.1": wordQ + `if ($n[self::m]) then <b>{string($n)}</b> else string($n), <br/>)`,
		"III.1": wordQ + `if ($n[self::m][xancestor::res('restoration') or xdescendant::res('restoration') or overlapping::res('restoration')])
    then <i><b>{string($n)}</b></i> else <b>{string($n)}</b>, <br/>)`,
	} {
		h0, l0 := counts()
		res, err := c.Query("ms", src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h1, l1 := counts()
		if len(res) == 0 || h1-h0 < 2 {
			t.Fatalf("%s: %d items, %v overlays: the manuscript should match several words", name, len(res), h1-h0)
		}
		if l1 != l0 {
			t.Errorf("%s: built %v overlay leaf layers for %v overlays, want 0", name, l1-l0, h1-h0)
		}
	}
	h0, l0 := counts()
	res, err := c.Query("ms", `count(analyze-string((//w)[1], "e")/descendant::leaf())`)
	if err != nil {
		t.Fatal(err)
	}
	if h1, l1 := counts(); len(res) != 1 || h1-h0 != 1 || l1-l0 != 1 {
		t.Errorf("leaf query: %v overlays, %v leaf layers, want 1 and 1", h1-h0, l1-l0)
	}
}
