package xquery

import (
	stdctx "context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
)

// Tests for morsel-driven parallel execution (parallel.go). The tuning
// knobs shrink so multi-morsel execution engages on test-sized corpora;
// everything restores on cleanup, so the rest of the package sees the
// production defaults.

// forceParallel shrinks the engagement thresholds and pins the worker
// count so even small documents split into many morsels.
func forceParallel(t *testing.T, workers int) {
	t.Helper()
	oldMin, oldMax, oldEngage := parMinMorsel, parMaxMorsel, parEngageMin
	oldWorkers := queryWorkersN.Load()
	parMinMorsel, parMaxMorsel, parEngageMin = 2, 8, 4
	SetQueryWorkers(workers)
	t.Cleanup(func() {
		parMinMorsel, parMaxMorsel, parEngageMin = oldMin, oldMax, oldEngage
		queryWorkersN.Store(oldWorkers)
	})
}

func parallelSweepDoc(t *testing.T, seed uint64, words int) *core.Document {
	t.Helper()
	d, err := corpus.Generate(corpus.Params{
		Seed: seed, Words: words, DamageRate: 0.2, RestoreRate: 0.2,
	}).Document()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestParallelDifferentialSweep is the main exactness property: for the
// paper queries and a few hundred seeded random path/predicate shapes,
// parallel execution (strict Eval and the streaming full drain) must be
// node-identical to serial execution, including error codes.
func TestParallelDifferentialSweep(t *testing.T) {
	forceParallel(t, 4)
	docs := sweepDocs(t)
	docs["big"] = parallelSweepDoc(t, 11, 120)

	srcs := append([]string{}, paperSweepQueries...)
	g := &qgen{r: rand.New(rand.NewSource(20260808))}
	for i := 0; i < 160; i++ {
		srcs = append(srcs, g.path(2, ""))
	}
	for i := 0; i < 60; i++ {
		srcs = append(srcs, "("+g.path(2, "")+")["+g.pred(1)+"]")
	}
	if len(srcs) < 200 {
		t.Fatalf("sweep too small: %d cases", len(srcs))
	}
	for i, src := range srcs {
		q, err := Compile(src)
		if err != nil {
			t.Fatalf("case %d: generated query does not parse: %q: %v", i, src, err)
		}
		for name, d := range docs {
			SetQueryWorkers(1)
			want, wantErr := q.Eval(d)
			SetQueryWorkers(4)
			got, gotErr := q.Eval(d)
			streamed, streamErr := drainStream(q.Stream(nil, d, nil, nil))

			if (gotErr == nil) != (wantErr == nil) {
				t.Errorf("case %d (%s): %q\n  parallel err=%v\n  serial err=%v", i, name, src, gotErr, wantErr)
				continue
			}
			if gotErr != nil {
				ge, gok := gotErr.(*Error)
				we, wok := wantErr.(*Error)
				if !gok || !wok || ge.Code != we.Code {
					t.Errorf("case %d (%s): %q: error codes differ: %v vs %v", i, name, src, gotErr, wantErr)
				}
				if se, sok := streamErr.(*Error); !sok || se.Code != ge.Code {
					t.Errorf("case %d (%s): %q: stream error %v, eval error %v", i, name, src, streamErr, gotErr)
				}
				continue
			}
			if streamErr != nil {
				t.Errorf("case %d (%s): %q: stream err=%v, eval ok", i, name, src, streamErr)
				continue
			}
			if !nodeIdentical(got, want) {
				t.Errorf("case %d (%s): %q\n  parallel: %s\n  serial:   %s", i, name, src, Serialize(got), Serialize(want))
			}
			if !nodeIdentical(streamed, want) {
				t.Errorf("case %d (%s): %q\n  parallel stream: %s\n  serial:          %s", i, name, src, Serialize(streamed), Serialize(want))
			}
		}
	}
}

// TestParallelConcurrentUpdates races parallel evaluations against
// copy-on-write updates: evaluations against a pinned version must see
// identical results no matter how many new versions are published
// concurrently (snapshot isolation per version). Run with -race.
func TestParallelConcurrentUpdates(t *testing.T) {
	forceParallel(t, 4)
	base := parallelSweepDoc(t, 5, 60)
	q := MustCompile(`//w[xancestor::dmg or string-length(string(.)) > 2]`)
	want, err := q.Eval(base)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := q.Eval(base)
				if err != nil {
					t.Errorf("pinned-version eval: %v", err)
					return
				}
				if !nodeIdentical(got, want) {
					t.Error("pinned-version eval diverged under concurrent updates")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		d := base
		r := rand.New(rand.NewSource(99))
		for k := 0; k < 24; k++ {
			src := fmt.Sprintf(`rename node (//w)[%d] as "u%d"`, 1+r.Intn(8), k)
			u, err := CompileUpdate(src)
			if err != nil {
				t.Errorf("update %q: %v", src, err)
				return
			}
			nd, _, err := u.Apply(d)
			if err != nil {
				continue // conflicting random edit; atomic failure is fine
			}
			d = nd
			// Query each fresh version too: its name indexes build lazily
			// under the parallel workers.
			if _, err := q.Eval(d); err != nil {
				t.Errorf("fresh-version eval: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestParallelLazyIndexBuild stampedes parallel evaluations onto a
// document whose name indexes have never been built, so the lazy build
// races the morsel workers of several concurrent queries. Run with
// -race.
func TestParallelLazyIndexBuild(t *testing.T) {
	forceParallel(t, 4)
	d := parallelSweepDoc(t, 17, 80) // indexes cold: nothing touched them yet
	q := MustCompile(`//w[string-length(string(.)) > 1]`)

	start := make(chan struct{})
	results := make([]Seq, 6)
	errs := make([]error, 6)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			results[g], errs[g] = q.Eval(d)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range results {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !nodeIdentical(results[g], results[0]) {
			t.Fatalf("goroutine %d diverged from goroutine 0", g)
		}
	}
}

// TestParallelCancellation checks MHXQ0002 propagates out of a parallel
// pass no matter which worker observes the canceled context.
func TestParallelCancellation(t *testing.T) {
	forceParallel(t, 4)
	d := parallelSweepDoc(t, 23, 2000) // enough items that some worker must poll
	q := MustCompile(`//w[string-length(string(.)) >= 0]`)
	ctx, cancel := stdctx.WithCancel(stdctx.Background())
	cancel()
	_, err := q.EvalContext(ctx, d, nil, nil)
	if err == nil {
		t.Fatal("canceled parallel evaluation returned no error")
	}
	xe, ok := err.(*Error)
	if !ok || xe.Code != "MHXQ0002" {
		t.Fatalf("canceled parallel evaluation returned %v, want MHXQ0002", err)
	}
}

// TestParallelEarlyExitStaysLazy proves the adaptive streaming route:
// an early-exit consumer never crosses the serial phase, so no morsels
// are dispatched and the scan stays O(answer); a full drain of the same
// shape does engage.
func TestParallelEarlyExitStaysLazy(t *testing.T) {
	forceParallel(t, 4)
	d := parallelSweepDoc(t, 31, 120)
	q := MustCompile(`//w[string-length(string(.)) > 0]`)

	findScan := func(op *ExplainOp) *ExplainOp {
		var walk func(*ExplainOp) *ExplainOp
		walk = func(e *ExplainOp) *ExplainOp {
			if e.Op == "index-scan" {
				return e
			}
			for _, k := range e.Children {
				if f := walk(k); f != nil {
					return f
				}
			}
			return nil
		}
		return walk(op)
	}

	s, render := q.StreamExplain(nil, d, nil, nil)
	if _, err := s.Take(1); err != nil {
		t.Fatal(err)
	}
	scan := findScan(render())
	if scan == nil {
		t.Fatal("no index-scan in plan")
	}
	if !scan.Parallel {
		t.Fatalf("index-scan not marked parallel: %+v", scan)
	}
	if scan.Morsels != 0 {
		t.Fatalf("early-exit consumer dispatched %d morsels, want 0", scan.Morsels)
	}
	if scan.OutRows != 1 {
		t.Fatalf("early-exit consumer drained %d rows, want 1", scan.OutRows)
	}

	s2, render2 := q.StreamExplain(nil, d, nil, nil)
	if _, err := s2.Take(0); err != nil {
		t.Fatal(err)
	}
	scan2 := findScan(render2())
	if scan2.Morsels == 0 {
		t.Fatal("full drain dispatched no morsels despite forced engagement")
	}
	// The worker stats live in the structured fields; Detail stays the
	// operator's static identity.
	if scan2.Workers < 1 || strings.Contains(scan2.Detail, "workers=") ||
		strings.Contains(scan2.Detail, "morsels=") {
		t.Fatalf("engaged scan: want worker stats in Workers/Morsels, not Detail: %+v", scan2)
	}
}

// TestExplainAnalyzeShowsWorkers checks satellite wiring: an analyzed
// evaluation of an eligible query reports workers, morsels and
// per-worker rows on the scan operator.
func TestExplainAnalyzeShowsWorkers(t *testing.T) {
	forceParallel(t, 4)
	d := parallelSweepDoc(t, 37, 120)
	q := MustCompile(`//w[string-length(string(.)) > 0]`)
	_, tree, err := q.ExplainAnalyze(d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var scan *ExplainOp
	var walk func(*ExplainOp)
	walk = func(e *ExplainOp) {
		if e.Op == "index-scan" {
			scan = e
		}
		for _, k := range e.Children {
			walk(k)
		}
	}
	walk(tree)
	if scan == nil {
		t.Fatal("no index-scan in analyzed plan")
	}
	if !scan.Parallel || scan.Morsels == 0 || scan.Workers < 1 {
		t.Fatalf("analyzed scan missing parallel stats: %+v", scan)
	}
	var rows int64
	for _, r := range scan.WorkerRows {
		rows += r
	}
	if rows != scan.InRows+1 && rows < scan.InRows {
		// Every candidate row examined by the parallel pass is attributed
		// to exactly one worker slot.
		t.Fatalf("worker rows %v do not cover the scan input (%d)", scan.WorkerRows, scan.InRows)
	}
	morsels, parQ := ParallelStats()
	if morsels == 0 || parQ == 0 {
		t.Fatalf("process-wide parallel stats not advanced: morsels=%d queries=%d", morsels, parQ)
	}
}

// TestParallelPositionalShapesStaySerial checks that order-observable
// shapes are never marked for parallel execution at plan time.
func TestParallelPositionalShapesStaySerial(t *testing.T) {
	forceParallel(t, 4)
	d := parallelSweepDoc(t, 41, 120)
	for _, src := range []string{
		`//w[3]`,
		`//w[last()]`,
		`//w[position() <= 2]`,
	} {
		q := MustCompile(src)
		_, tree, err := q.ExplainAnalyze(d, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var bad *ExplainOp
		var walk func(*ExplainOp)
		walk = func(e *ExplainOp) {
			if e.Parallel || e.Morsels != 0 {
				bad = e
			}
			for _, k := range e.Children {
				walk(k)
			}
		}
		walk(tree)
		if bad != nil {
			t.Fatalf("%q: positional shape marked/ran parallel: %+v", src, bad)
		}
	}
}
