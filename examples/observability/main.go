// Observability: metrics scrape and EXPLAIN ANALYZE from the API.
//
// A small corpus is built, a query burst (with repeats, so the
// compiled-query and plan caches see both misses and hits) and one
// update drive the engine's instrumentation, then two views of the
// same run are printed: the Prometheus text scrape a monitoring
// system would collect from mhserve's GET /metrics, and the timed
// operator tree of one query — EXPLAIN ANALYZE, with each operator's
// observed cardinalities and wall time.
//
// Run: go run ./examples/observability
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"mhxquery"
)

func main() {
	coll := mhxquery.NewCollection(mhxquery.CollectionOptions{Workers: 4})

	// Three tiny manuscripts, pages vs. words, each with one word split
	// across a page break.
	for i, text := range []string{"lorem", "ipsum", "dolor"} {
		name := fmt.Sprintf("ms%d", i+1)
		doc, err := mhxquery.Parse(
			mhxquery.Hierarchy{Name: "pages",
				XML: fmt.Sprintf(`<r><page>%s wo</page><page>rld</page></r>`, text)},
			mhxquery.Hierarchy{Name: "words",
				XML: fmt.Sprintf(`<r><w>%s</w> <w>world</w></r>`, text)},
		)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := coll.Put(name, doc); err != nil {
			log.Fatal(err)
		}
	}

	// Query burst: the first round misses both caches, the second hits.
	for round := 0; round < 2; round++ {
		if _, err := coll.QueryAll(`count(/descendant::w[overlapping::page])`); err != nil {
			log.Fatal(err)
		}
	}
	// One copy-on-write update, to populate the commit-latency histogram.
	if _, _, err := coll.Update("ms1", `delete node (//w)[1]`); err != nil {
		log.Fatal(err)
	}

	// EXPLAIN ANALYZE: the query runs instrumented; every operator
	// reports calls/rows and inclusive wall time, the root total time.
	_, plan, err := coll.ExplainAnalyze(context.Background(), "ms2",
		`for $w in /descendant::w[overlapping::page] return string($w)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("EXPLAIN ANALYZE:")
	fmt.Print(plan)

	// The scrape a Prometheus server would collect from GET /metrics.
	fmt.Println("\nmetrics scrape:")
	if err := coll.Metrics().WritePrometheus(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// The same registry, as a flat snapshot for programmatic checks.
	snap := coll.Metrics().Snapshot()
	fmt.Printf("\nplan cache hit rate: %.0f%%\n",
		100*snap[`mhx_cache_requests_total{cache="plan",result="hit"}`]/
			(snap[`mhx_cache_requests_total{cache="plan",result="hit"}`]+
				snap[`mhx_cache_requests_total{cache="plan",result="miss"}`]))
	fmt.Printf("name-index builds:   %.0f\n", snap["mhx_nameindex_builds_total"])
}
