package main

// The traced run: an in-process replay of the same seeded request
// stream through the layers' public Go functions, each call wrapped in
// a span, plus an untraced replay for runtime statistics, an EXPLAIN
// ANALYZE pass, and the layer-by-layer set-up and reopen costs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"mhxquery/internal/collection"
	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/store"
	"mhxquery/internal/xmlparse"
	"mhxquery/internal/xquery"
)

// span is one timed call. Spans of one request share Req; Parent is
// the ID of the enclosing span (-1 at a request's root).
type span struct {
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one goroutine's spans in memory. A nil tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	epoch time.Time
	base  int // ID of spans[0]; tracers of one run use disjoint ranges
	spans []span
}

func newTracer(epoch time.Time, index int) *tracer {
	return &tracer{epoch: epoch, base: index << 24}
}

func (t *tracer) begin(name, tag string, req int64, parent int) int {
	if t == nil {
		return -1
	}
	id := t.base + len(t.spans)
	t.spans = append(t.spans, span{Name: name, Tag: tag, Req: req, ID: id, Parent: parent,
		Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-t.base].End = int64(time.Since(t.epoch))
}

// spanSet is every span of a run, with per-name lookups.
type spanSet []span

func (ss spanSet) durations(name, tag string, unit time.Duration) []float64 {
	var out []float64
	for i := range ss {
		if ss[i].Name == name && (tag == "" || ss[i].Tag == tag) {
			out = append(out, float64(ss[i].dur())/float64(unit))
		}
	}
	return out
}

func (ss spanSet) total(name string) time.Duration {
	var t time.Duration
	for i := range ss {
		if ss[i].Name == name {
			t += ss[i].dur()
		}
	}
	return t
}

// selfTimes returns each span name's summed self time: span time minus
// the time of its child spans (children of one span never overlap, as
// each tracer belongs to one goroutine).
func (ss spanSet) selfTimes() map[string]time.Duration {
	child := map[int]time.Duration{}
	for i := range ss {
		if ss[i].Parent >= 0 {
			child[ss[i].Parent] += ss[i].dur()
		}
	}
	self := map[string]time.Duration{}
	for i := range ss {
		self[ss[i].Name] += ss[i].dur() - child[ss[i].ID]
	}
	return self
}

// write stores the spans as JSON lines.
func (ss spanSet) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range ss {
		if err := enc.Encode(&ss[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// replayOps is how many ops of each client's stream the in-process
// replays run.
var replayOps = map[string]int{"paper-read": 96, "lookup": 1024, "annotate": 160}

// traceResult is what the traced run measured.
type traceResult struct {
	spans    spanSet
	setup    map[string]float64 // per-manuscript set-up layer costs
	untraced time.Duration      // mean wall time of the untraced replays
	traced   time.Duration      // wall time of the traced replay
	ops      int                // ops per replay
	allocs   float64            // MemStats deltas over the untraced replay
	allocB   float64
	gcCPU    float64 // GC share of CPU time in the untraced replay
	analyze  map[string]float64
	replayMS float64 // collection.Open span on the stopped server's directory
}

// runTrace runs the in-process side of a traced run. dataDir is the
// stopped server's directory.
func (b *bench) runTrace(dataDir string) (*traceResult, error) {
	tr := &traceResult{}
	epoch := time.Now()
	setupTr := newTracer(epoch, 0)
	docs, err := b.setupLayers(setupTr, tr)
	if err != nil {
		return nil, err
	}
	prefixes := make([][]op, clients)
	for c, s := range b.in.streams {
		prefixes[c] = s.prefix(replayOps[b.in.workload])
		tr.ops += len(prefixes[c])
	}
	tr.ops += len(b.in.probe)

	// Untraced replay, with runtime statistics.
	var m0, m1 runtime.MemStats
	gc0 := gcCPU()
	runtime.ReadMemStats(&m0)
	if tr.untraced, err = b.replay(docs, prefixes, nil); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	gc1 := gcCPU()
	tr.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(tr.ops)
	tr.allocB = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(tr.ops)
	tr.gcCPU = ratio(gc1[0]-gc0[0], gc1[1]-gc0[1])

	// Traced, then untraced once more: the overhead ratio compares the
	// traced replay with the mean of the two untraced ones around it.
	tracers := []*tracer{setupTr}
	for c := 0; c < clients; c++ {
		tracers = append(tracers, newTracer(epoch, c+1))
	}
	if tr.traced, err = b.replay(docs, prefixes, tracers[1:]); err != nil {
		return nil, err
	}
	again, err := b.replay(docs, prefixes, nil)
	if err != nil {
		return nil, err
	}
	tr.untraced = (tr.untraced + again) / 2
	if tr.analyze, err = b.analyzePass(docs); err != nil {
		return nil, err
	}
	if err := b.walReplay(dataDir, setupTr, tr); err != nil {
		return nil, err
	}
	for _, t := range tracers {
		tr.spans = append(tr.spans, t.spans...)
	}
	return tr, nil
}

// gcCPU returns the process's cumulative GC and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// setupLayers parses, builds, encodes and reopens every manuscript
// layer by layer, and times the first query on each reopened image
// against the same query warm. It returns the built documents.
func (b *bench) setupLayers(t *tracer, tr *traceResult) (map[string]*core.Document, error) {
	dir := filepath.Join(b.work, "images")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	split := xquery.MustCompile(splitTemplate.src)
	docs := map[string]*core.Document{}
	var xml, img int
	var firstTouch time.Duration
	for i, m := range b.in.docs() {
		root := t.begin("setup", m.name, int64(i), -1)
		var trees []core.NamedTree
		for _, h := range corpus.BoethiusHierarchies() {
			sp := t.begin("xmlparse.Parse", h, int64(i), root)
			n, err := xmlparse.Parse(m.gen.XML[h], xmlparse.Options{})
			t.end(sp)
			if err != nil {
				return nil, fmt.Errorf("parsing %s/%s: %w", m.name, h, err)
			}
			trees = append(trees, core.NamedTree{Name: h, Root: n})
		}
		sp := t.begin("core.Build", "", int64(i), root)
		d, err := core.Build(trees)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", m.name, err)
		}
		var image bytes.Buffer
		sp = t.begin("store.EncodeSnapshot", "", int64(i), root)
		err = store.EncodeSnapshot(&image, d, 0)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("encoding %s: %w", m.name, err)
		}
		path := filepath.Join(dir, m.name+".mhxg")
		if err := os.WriteFile(path, image.Bytes(), 0o644); err != nil {
			return nil, err
		}
		sp = t.begin("store.OpenSnapshotFile", "", int64(i), root)
		od, _, err := store.OpenSnapshotFile(path)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("opening %s: %w", m.name, err)
		}
		var times [2]time.Duration
		for k, name := range []string{"first-touch", "warm-touch"} {
			sp = t.begin(name, "", int64(i), root)
			seq, err := split.EvalContext(context.Background(), od, nil, nil)
			t.end(sp)
			times[k] = t.spans[sp-t.base].dur()
			if err == nil {
				want, _ := truthAnswer(m, splitTemplate.name)
				if got := xquery.Serialize(seq); got != want {
					err = fmt.Errorf("split on reopened %s: %s, want %s", m.name, got, want)
				}
			}
			b.check(err)
		}
		t.end(root)
		firstTouch += times[0] - times[1]
		xml += m.xmlBytes
		img += image.Len()
		docs[m.name] = d
	}
	ss := spanSet(t.spans)
	n := float64(len(docs))
	tr.setup = map[string]float64{
		"xmlparse.parse_ms_per_doc":     ms(ss.total("xmlparse.Parse")) / n,
		"cmh.build_ms_per_doc":          ms(ss.total("core.Build")) / n,
		"slab.encode_ms_per_doc":        ms(ss.total("store.EncodeSnapshot")) / n,
		"slab.open_us_per_doc":          us(ss.total("store.OpenSnapshotFile")) / n,
		"core.first_touch_ms_per_doc":   ms(firstTouch) / n,
		"slab.image_bytes_per_xml_byte": float64(img) / float64(xml),
	}
	return docs, nil
}

// replay runs each client's ops on its own goroutine against a fresh
// in-memory collection of docs (after an untimed warm-up pass), then
// the update probe, and returns the wall time. With tracers nil it
// records no spans.
func (b *bench) replay(docs map[string]*core.Document, prefixes [][]op, tracers []*tracer) (time.Duration, error) {
	coll := collection.New(collection.Options{})
	for _, m := range b.in.ed {
		if _, err := coll.Put(m.name, docs[m.name]); err != nil {
			return 0, err
		}
	}
	warm := &replayer{b: b, coll: coll}
	for i := range b.in.warm {
		b.check(warm.do(&b.in.warm[i]))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		r := &replayer{b: b, coll: coll, req: int64(c) << 32}
		if tracers != nil {
			r.tr = tracers[c]
		}
		wg.Add(1)
		go func(c int, r *replayer) {
			defer wg.Done()
			for i := range prefixes[c] {
				b.check(r.do(&prefixes[c][i]))
			}
		}(c, r)
	}
	wg.Wait()
	if b.in.scratch != nil {
		if _, err := coll.Put(b.in.scratch.name, docs[b.in.scratch.name]); err != nil {
			return 0, err
		}
		r := &replayer{b: b, coll: coll, req: 1 << 40}
		if tracers != nil {
			r.tr = tracers[0]
		}
		for i := range b.in.probe {
			b.check(r.do(&b.in.probe[i]))
		}
	}
	return time.Since(start), nil
}

// replayer sends ops to an in-process collection the way mhserve does,
// through the layers' public functions.
type replayer struct {
	b    *bench
	coll *collection.Collection
	tr   *tracer
	req  int64
}

func (r *replayer) do(o *op) error {
	r.req++
	t := r.tr
	root := t.begin("request", o.tmpl, r.req, -1)
	defer t.end(root)
	ctx := context.Background()
	if o.kind == opUpdate {
		sp := t.begin("xquery.CompileUpdate", "", r.req, root)
		u, err := xquery.CompileUpdate(o.src)
		t.end(sp)
		if err != nil {
			return fmt.Errorf("replay: %q: %w", o.src, err)
		}
		d, ok := r.coll.Get(o.doc)
		if !ok {
			return fmt.Errorf("replay: no document %s", o.doc)
		}
		sp = t.begin("core.Apply", "", r.req, root)
		nd, _, err := u.ApplyContext(ctx, d, r.coll)
		t.end(sp)
		if err != nil {
			return fmt.Errorf("replay: %q on %s: %w", o.src, o.doc, err)
		}
		sp = t.begin("collection.Put", "", r.req, root)
		_, err = r.coll.Put(o.doc, nd)
		t.end(sp)
		if err == nil && int(nd.Rev) != o.version {
			err = fmt.Errorf("replay: update on %s reached version %d, want %d", o.doc, nd.Rev, o.version)
		}
		return err
	}
	sp := t.begin("xquery.Compile", "", r.req, root)
	q, err := r.coll.Compile(o.src)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("replay: %s: %w", o.tmpl, err)
	}
	names := []string{o.doc}
	var seqs []xquery.Seq
	if o.doc == "" {
		sp = t.begin("collection.QueryAll", o.tmpl, r.req, root)
		rows, err := r.coll.QueryAll(o.src, "")
		t.end(sp)
		if err != nil {
			return fmt.Errorf("replay: %s: %w", o.tmpl, err)
		}
		names = names[:0]
		for _, row := range rows {
			if row.Err != nil {
				return fmt.Errorf("replay: %s on %s: %w", o.tmpl, row.Name, row.Err)
			}
			names = append(names, row.Name)
			seqs = append(seqs, row.Seq)
		}
	} else {
		d, err := r.coll.ResolveDoc(o.doc)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		sp = t.begin("xquery.PlanFor", "", r.req, root)
		pl := q.PlanFor(d)
		t.end(sp)
		sp = t.begin("xquery.EvalContext", o.tmpl, r.req, root)
		seq, err := pl.EvalContext(ctx, d, nil, r.coll)
		t.end(sp)
		if err != nil {
			return fmt.Errorf("replay: %s on %s: %w", o.tmpl, o.doc, err)
		}
		seqs = append(seqs, seq)
	}
	for i, seq := range seqs {
		sp = t.begin("xquery.Serialize", "", r.req, root)
		got := xquery.Serialize(seq)
		t.end(sp)
		if want, _ := r.b.in.oracle.answer(names[i], o.version, o.src); got != want {
			return fmt.Errorf("replay: %s on %s@%d differs from the oracle", o.tmpl, names[i], o.version)
		}
	}
	return nil
}

// analyzedTexts returns the query texts the EXPLAIN ANALYZE pass runs,
// each with its target manuscript.
func (b *bench) analyzedTexts() []op {
	if b.in.workload != "lookup" {
		return paperPool(b.in.ed, nil)
	}
	var ops []op
	for i, t := range lookupTemplates() {
		m := b.in.ed[i%len(b.in.ed)]
		ops = append(ops, op{kind: opQuery, tmpl: t.name, src: t.src, doc: m.name})
	}
	return ops
}

// analyzePass runs the workload's texts under EXPLAIN ANALYZE on the
// unedited edition and derives rows per result, the axis and overlay
// shares of query time, and the planner's q-error.
func (b *bench) analyzePass(docs map[string]*core.Document) (map[string]float64, error) {
	var inRows, results, rootNanos, axisNanos, overlayNanos float64
	var qerrs []float64
	for _, o := range b.analyzedTexts() {
		q, err := xquery.Compile(o.src)
		if err != nil {
			return nil, err
		}
		seq, plan, err := q.ExplainAnalyze(docs[o.doc], nil, nil)
		if err != nil {
			return nil, fmt.Errorf("explain analyze %s on %s: %w", o.tmpl, o.doc, err)
		}
		results += float64(max(len(seq), 1))
		rootNanos += float64(plan.Nanos)
		var walk func(e *xquery.ExplainOp)
		walk = func(e *xquery.ExplainOp) {
			inRows += float64(e.InRows)
			var kids int64
			for _, k := range e.Children {
				kids += k.Nanos
				walk(k)
			}
			switch {
			case e.Op == "axis-step" || e.Op == "index-scan" || e.Op == "chain-scan":
				axisNanos += float64(max(e.Nanos-kids, 0))
			case e.Op == "call" && e.Detail == "analyze-string()":
				overlayNanos += float64(e.Nanos)
			}
			if e.EstRows != nil && e.Calls == 1 {
				est, obs := float64(max(*e.EstRows, 1)), float64(max(e.OutRows, 1))
				qerrs = append(qerrs, max(est/obs, obs/est))
			}
		}
		walk(plan)
	}
	sort.Float64s(qerrs)
	qmax := 0.0
	if len(qerrs) > 0 {
		qmax = qerrs[len(qerrs)-1]
	}
	return map[string]float64{
		"xquery.rows_per_result":    inRows / results,
		"xquery.axis_time_share":    ratio(axisNanos, rootNanos),
		"xquery.overlay_time_share": ratio(overlayNanos, rootNanos),
		"xquery.qerror_p50":         median(qerrs),
		"xquery.qerror_max":         qmax,
	}, nil
}

// walReplay opens a copy of the stopped server's directory in-process,
// timing collection.Open (snapshot load and write-ahead-log replay).
func (b *bench) walReplay(dataDir string, t *tracer, tr *traceResult) error {
	dir := filepath.Join(b.work, "walreplay")
	if err := copyDir(dataDir, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sp := t.begin("collection.Open", "", -1, -1)
	c, err := collection.Open(dir, collection.Options{})
	t.end(sp)
	if err != nil {
		return fmt.Errorf("opening the stopped server's directory: %w", err)
	}
	tr.replayMS = ms(t.spans[sp-t.base].dur())
	return c.Close()
}
