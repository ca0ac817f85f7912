// Concurrent-use tests backing the documented claims that a parsed
// Document is immutable and safe for concurrent use, that a Collection
// may interleave ingest and fan-out queries from many goroutines, and
// that copy-on-write updates give readers snapshot isolation: a reader
// always observes a consistent pre- or post-update version, never a
// mix. Run with -race (CI does).
package mhxquery_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mhxquery"
	"mhxquery/internal/corpus"
)

// TestConcurrentDocumentQueries hammers one shared document from many
// goroutines, including analyze-string queries whose temporary
// hierarchies must stay private to each evaluation.
func TestConcurrentDocumentQueries(t *testing.T) {
	xml := corpus.BoethiusXML()
	var hs []mhxquery.Hierarchy
	for _, name := range corpus.BoethiusHierarchies() {
		hs = append(hs, mhxquery.Hierarchy{Name: name, XML: xml[name]})
	}
	d, err := mhxquery.Parse(hs...)
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct{ src, want string }{
		{`count(/descendant::w[overlapping::line])`, "1"},
		{`for $w in /descendant::w[overlapping::page] return string($w)`, ""},
		{`string-join((for $l in /descendant::line return string($l)), "|")`,
			"gesceaftum unawendendne sin|gallice sibbe gecynde þa"},
		{`for $w in /descendant::w[string(.) = 'unawendendne']
		  return serialize(analyze-string($w, ".*un<a>a</a>we.*"))`,
			`<res><m>un<a>a</a>we</m>ndendne</res>`},
	}
	const goroutines, rounds = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := queries[(g+i)%len(queries)]
				got, err := d.QueryString(q.src)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got != q.want {
					errs <- fmt.Errorf("goroutine %d: got %q, want %q", g, got, q.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentCollection interleaves Put, Get, Names and QueryAll on
// one collection from many goroutines.
func TestConcurrentCollection(t *testing.T) {
	c := mhxquery.NewCollection(mhxquery.CollectionOptions{Workers: 4, CacheSize: 8})
	defer c.Close()

	mkDoc := func(seed uint64) *mhxquery.Document {
		g := corpus.Generate(corpus.Params{Seed: seed, Words: 40})
		var hs []mhxquery.Hierarchy
		for name, xml := range g.XML {
			hs = append(hs, mhxquery.Hierarchy{Name: name, XML: xml})
		}
		d, err := mhxquery.Parse(hs...)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Seed a few documents so early QueryAll calls have work.
	for i := 0; i < 4; i++ {
		if _, err := c.Put(fmt.Sprintf("seed%d", i), mkDoc(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}

	const writers, readers, rounds = 4, 8, 15
	// Parse on the test goroutine (mkDoc may t.Fatal); writers only Put.
	writerDocs := make([][]*mhxquery.Document, writers)
	for w := range writerDocs {
		writerDocs[w] = make([]*mhxquery.Document, rounds)
		for i := range writerDocs[w] {
			writerDocs[w][i] = mkDoc(uint64(100 + w*rounds + i))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				if _, err := c.Put(name, writerDocs[w][i]); err != nil {
					errs <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch i % 3 {
				case 0:
					results, err := c.QueryAll(`count(/descendant::w)`)
					if err != nil {
						errs <- fmt.Errorf("reader %d: %v", r, err)
						return
					}
					for _, res := range results {
						if res.Err != nil {
							errs <- fmt.Errorf("reader %d: %s: %v", r, res.Name, res.Err)
							return
						}
						if res.Result.String() != "40" {
							errs <- fmt.Errorf("reader %d: %s: got %q", r, res.Name, res.Result.String())
							return
						}
					}
				case 1:
					if _, err := c.Query("seed0", `sum(for $d in collection("seed*") return count($d/descendant::w))`); err != nil {
						errs <- fmt.Errorf("reader %d: %v", r, err)
						return
					}
				default:
					for _, name := range c.Names() {
						if _, ok := c.Get(name); !ok {
							// A concurrent writer may not have finished;
							// only seeds are guaranteed present.
							errs <- fmt.Errorf("reader %d: Names() returned missing %q", r, name)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := c.Len(), 4+writers*rounds; got != want {
		t.Fatalf("final Len = %d, want %d", got, want)
	}
}

// annoDoc builds a document whose "anno" hierarchy holds n elements all
// named gen0. Each update renames EVERY anno element to the next
// generation in one atomic batch, so any consistent version has
// uniformly named anno elements — a reader observing two generations in
// one result has broken snapshot isolation.
func annoDoc(t testing.TB, n int) *mhxquery.Document {
	t.Helper()
	var words, anno strings.Builder
	words.WriteString("<r>")
	anno.WriteString("<r>")
	for i := 0; i < n; i++ {
		if i > 0 {
			words.WriteString(" ")
			anno.WriteString(" ")
		}
		fmt.Fprintf(&words, "<w>tok%02d</w>", i)
		fmt.Fprintf(&anno, "<gen0>tok%02d</gen0>", i)
	}
	words.WriteString("</r>")
	anno.WriteString("</r>")
	d, err := mhxquery.Parse(
		mhxquery.Hierarchy{Name: "words", XML: words.String()},
		mhxquery.Hierarchy{Name: "anno", XML: anno.String()},
	)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSnapshotIsolationUnderUpdates commits a chain of versions while
// readers stream from whatever version they grabbed: every streamed
// result must be generation-uniform, and version numbers must ascend.
func TestSnapshotIsolationUnderUpdates(t *testing.T) {
	const elems, versions, readers = 12, 30, 8
	var current atomic.Pointer[mhxquery.Document]
	current.Store(annoDoc(t, elems))

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	done := make(chan struct{})

	wg.Add(1)
	go func() { // the single writer
		defer wg.Done()
		defer close(done)
		for i := 0; i < versions; i++ {
			d := current.Load()
			nd, stats, err := d.Update(fmt.Sprintf(`rename node /descendant::*('anno') as "gen%d"`, i+1))
			if err != nil {
				errs <- fmt.Errorf("writer: version %d: %v", i+1, err)
				return
			}
			if stats.Edits != elems {
				errs <- fmt.Errorf("writer: version %d renamed %d elements, want %d", i+1, stats.Edits, elems)
				return
			}
			if nd.Version() != uint64(i+1) {
				errs <- fmt.Errorf("writer: Version() = %d, want %d", nd.Version(), i+1)
				return
			}
			current.Store(nd)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				d := current.Load()
				st, err := d.Stream(context.Background(), `/descendant::*('anno')`)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				// Pull item by item: the stream spans many writer
				// commits, yet must stay inside its snapshot.
				first := ""
				n := 0
				for {
					item, ok, err := st.Next()
					if err != nil {
						errs <- fmt.Errorf("reader %d: %v", r, err)
						return
					}
					if !ok {
						break
					}
					name := item.Item(0).Node().Name()
					if first == "" {
						first = name
					} else if name != first {
						errs <- fmt.Errorf("reader %d: torn read: %s then %s in one stream", r, first, name)
						return
					}
					n++
				}
				if n != elems {
					errs <- fmt.Errorf("reader %d: streamed %d elements, want %d", r, n, elems)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := current.Load().Version(); got != versions {
		t.Fatalf("final version = %d, want %d", got, versions)
	}
}

// TestCollectionSnapshotIsolationUnderUpdates is the collection-level
// half: writers commit versions through Collection.Update (publish +
// WAL commit) while fan-out and streaming readers run; every
// per-document result must be generation-uniform and no evaluation may
// fail.
func TestCollectionSnapshotIsolationUnderUpdates(t *testing.T) {
	const docs, versions, readers = 3, 12, 6
	dir := t.TempDir()
	c, err := mhxquery.OpenCollection(dir, mhxquery.CollectionOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < docs; i++ {
		if _, err := c.Put(fmt.Sprintf("doc%d", i), annoDoc(t, 8)); err != nil {
			t.Fatal(err)
		}
	}
	uniform := `count(distinct-values(for $x in /descendant::*('anno') return name($x)))`

	var wg sync.WaitGroup
	errs := make(chan error, docs+readers)
	done := make(chan struct{})
	var writersDone sync.WaitGroup
	for w := 0; w < docs; w++ {
		wg.Add(1)
		writersDone.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersDone.Done()
			name := fmt.Sprintf("doc%d", w)
			for i := 0; i < versions; i++ {
				if _, _, err := c.Update(name, fmt.Sprintf(`rename node /descendant::*('anno') as "gen%d_%d"`, w, i+1)); err != nil {
					errs <- fmt.Errorf("writer %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	go func() { writersDone.Wait(); close(done) }()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if r%2 == 0 {
					results, err := c.QueryAll(uniform)
					if err != nil {
						errs <- fmt.Errorf("reader %d: %v", r, err)
						return
					}
					for _, res := range results {
						if res.Err != nil {
							errs <- fmt.Errorf("reader %d: %s: %v", r, res.Name, res.Err)
							return
						}
						if res.Result.String() != "1" {
							errs <- fmt.Errorf("reader %d: %s: torn fan-out read: %s generations", r, res.Name, res.Result.String())
							return
						}
					}
					continue
				}
				cs, err := c.StreamMatching(context.Background(), "", `/descendant::*('anno')`)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				perDoc := map[string]string{}
				for {
					row, ok := cs.Next()
					if !ok {
						break
					}
					if row.Err != nil {
						errs <- fmt.Errorf("reader %d: %s: %v", r, row.Doc, row.Err)
						return
					}
					name := row.Item.Item(0).Node().Name()
					if prev, seen := perDoc[row.Doc]; seen && prev != name {
						errs <- fmt.Errorf("reader %d: %s: torn stream read: %s then %s", r, row.Doc, prev, name)
						return
					}
					perDoc[row.Doc] = name
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The last committed versions survived in the write-ahead log.
	c2, err := mhxquery.OpenCollection(dir, mhxquery.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for w := 0; w < docs; w++ {
		name := fmt.Sprintf("doc%d", w)
		res, err := c2.Query(name, fmt.Sprintf(`count(//gen%d_%d)`, w, versions))
		if err != nil {
			t.Fatal(err)
		}
		if res.String() != "8" {
			t.Fatalf("%s reloaded: final generation count = %s, want 8", name, res.String())
		}
	}
}
