package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"mhxquery/internal/corpus"
)

// TestSameSeedSameInputs checks that a seed fixes the corpus, the
// request streams and the expected answers byte for byte, and that
// another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := buildInputs(w, 5)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := buildInputs(w, 5)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: seed 5 gave hashes %s and %s", w, a.hash, b.hash)
		}
		for c := range a.streams {
			pa, pb := a.streams[c].prefix(500), b.streams[c].prefix(500)
			if !reflect.DeepEqual(pa, pb) {
				t.Errorf("%s: client %d streams differ under one seed", w, c)
			}
		}
		other, err := buildInputs(w, 6)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if other.hash == a.hash {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", w)
		}
	}
}

// TestPrefixDoesNotAdvance checks that reading a stream's prefix (as
// the hash and the traced replay do) leaves the stream where it was.
func TestPrefixDoesNotAdvance(t *testing.T) {
	in, err := buildInputs("paper-read", 5)
	if err != nil {
		t.Fatal(err)
	}
	s := in.streams[0]
	want := s.prefix(300)
	for i := range want {
		if got := s.next(); got.src != want[i].src || got.doc != want[i].doc {
			t.Fatalf("op %d: got %s on %s, prefix said %s on %s", i, got.tmpl, got.doc, want[i].tmpl, want[i].doc)
		}
	}
}

// TestVocabularyMatchesGenerator keeps the lookup vocabulary equal to
// the corpus generator's word list.
func TestVocabularyMatchesGenerator(t *testing.T) {
	g := corpus.Generate(corpus.Params{Seed: 1, Words: 20000})
	seen := map[string]bool{}
	for _, s := range g.Truth.WordSpans {
		seen[g.Text[s.Start:s.End]] = true
	}
	var got []string
	for w := range seen {
		got = append(got, w)
	}
	want := append([]string(nil), vocabulary...)
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("generator words %v, vocabulary %v", got, want)
	}
}

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json names the
// workloads and metrics this program reports, with their units, and that
// the interaction map covers every per-layer metric.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bj struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var im interactions
	if err := json.Unmarshal(interactionsJSON, &im); err != nil {
		t.Fatal(err)
	}
	if im.Seeds.Default != defaultSeed || im.Seeds.HeldOut != heldOutSeed {
		t.Errorf("interactions.json seeds %+v, code %d/%d", im.Seeds, defaultSeed, heldOutSeed)
	}
	var names, gated []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if im.Workloads[w] == "" {
			t.Errorf("workload %s has no reason in interactions.json", w)
		}
		if im.NotGated[w] == "" {
			gated = append(gated, w)
		}
	}
	if !reflect.DeepEqual(names, gated) {
		t.Errorf("BENCHMARK.json workloads %v, gated workloads in code %v", names, gated)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if bj.EndToEnd[i].Name != m.name || bj.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %s %s", i, bj.EndToEnd[i], m.name, m.unit)
		}
	}
	if len(bj.PerLayer) != len(im.PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, interactions.json %d", len(bj.PerLayer), len(im.PerLayer))
	}
	for i, m := range im.PerLayer {
		if bj.PerLayer[i] != (named{m.Name, m.Unit, m.Better}) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, interactions.json %+v", i, bj.PerLayer[i], m)
		}
	}
}

// TestSelfTimes checks span self time: span time minus child time.
func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	ss := spanSet{
		{Name: "request", ID: 0, Parent: -1, Start: 0, End: 10 * ms},
		{Name: "xquery.Compile", ID: 1, Parent: 0, Start: 1 * ms, End: 3 * ms},
		{Name: "xquery.EvalContext", ID: 2, Parent: 0, Start: 3 * ms, End: 9 * ms},
	}
	got := ss.selfTimes()
	want := map[string]time.Duration{"request": 2 * time.Millisecond,
		"xquery.Compile": 2 * time.Millisecond, "xquery.EvalContext": 6 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// TestHistDelta checks quantiles of a histogram's observations between
// two scrapes.
func TestHistDelta(t *testing.T) {
	before := parseProm([]byte(`h_bucket{le="0.001"} 5
h_bucket{le="0.01"} 5
h_bucket{le="+Inf"} 5
`))
	after := parseProm([]byte(`# TYPE h histogram
h_bucket{le="0.001"} 5
h_bucket{le="0.01"} 15
h_bucket{le="+Inf"} 15
`))
	if q := histDelta(before, after, "h", 0.5); q < 0.0054 || q > 0.0056 {
		t.Errorf("median %v, want 0.0055", q)
	}
}

// TestBlocks checks that a client's samples are cut into whole blocks,
// each as long as its ops' wall time, and that the block medians ignore
// one slow block.
func TestBlocks(t *testing.T) {
	var xs []sample
	for i := 0; i < 10; i++ {
		wall := 10 * time.Millisecond
		if i < 3 {
			wall = 40 * time.Millisecond // the first block ran slow
		}
		xs = append(xs, sample{wall: wall, ms: float64(wall / time.Millisecond), ok: true})
	}
	ws := blocks(xs, 3)
	if len(ws) != 3 || ws[0].wall != 120*time.Millisecond || ws[1].wall != 30*time.Millisecond {
		t.Fatalf("blocks %+v, want three of three ops, the first 120ms and the second 30ms long", ws)
	}
	if rate, n := medianOver(ws, nil, okRate); rate != 100 || n != 9 {
		t.Errorf("median rate %v over %d samples, want 100 over 9", rate, n)
	}
	if p50, _ := medianOver(ws, nil, latencyQuantile(0.5)); p50 != 10 {
		t.Errorf("median p50 %v, want 10", p50)
	}
	if ws := blocks(xs[:2], 3); len(ws) != 1 || len(ws[0].samples) != 2 {
		t.Errorf("a lone partial block gave %+v, want it kept", ws)
	}
}
