package main

// The untraced end-to-end run: mhserve as a child process driven over
// loopback HTTP by closed-loop clients, every answer checked against
// the oracle.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"mhxquery"
)

const (
	// setupRuns and reopenRuns are the fewest set-ups and reopens an
	// untraced run times; setup_s and reopen_s are their medians.
	// Paper-read and lookup time one set-up per round besides those of
	// the live server and the writer. A traced run reports neither and does each once.
	setupRuns  = 5
	reopenRuns = 10
	// gaugeEvery is how often a traced run samples /metrics gauges
	// during the read windows.
	gaugeEvery = 50 * time.Millisecond
	readyWait  = time.Minute
	// settleWait bounds the wait for a server to go idle before a probe
	// chunk or read window.
	settleWait = 10 * time.Second
	maxErrors  = 8 // failure descriptions kept for the report
)

// bench is one invocation: its inputs, its scratch directory, the
// mhserve binary, and the servers it has started.
type bench struct {
	in      *inputs
	seconds int
	trace   bool
	work    string // scratch directory inside the checkout
	bin     string // mhserve binary

	// stages records how long each stage of the run took, in seconds,
	// so the run's own cost can be read from its report.
	stages map[string]float64

	mu        sync.Mutex
	servers   []*server
	attempted int
	failed    int
	errs      []string
}

// repeats returns how often to time a set-up or reopen.
func (b *bench) repeats(n int) int {
	if b.trace {
		return 1
	}
	return n
}

// stage adds the time since start to name's total.
func (b *bench) stage(name string, start time.Time) {
	b.stages[name] += time.Since(start).Seconds()
}

// check counts one checked operation, failing when err is set.
func (b *bench) check(err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < maxErrors {
			b.errs = append(b.errs, err.Error())
		}
	}
	return err == nil
}

// fail counts n failures that were not separate requests (acknowledged
// updates found missing after a reopen).
func (b *bench) fail(n int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted += n
	b.failed += n
	if len(b.errs) < maxErrors {
		b.errs = append(b.errs, err.Error())
	}
}

// start launches mhserve on dir and waits until it is ready.
func (b *bench) start(dir string, c *http.Client) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s, err := startServer(b.bin, dir, dir+".log")
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.servers = append(b.servers, s)
	b.mu.Unlock()
	if err := s.waitReady(c, readyWait); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stopAll stops every server still running; it is safe to call twice.
func (b *bench) stopAll() {
	b.mu.Lock()
	ss := b.servers
	b.servers = nil
	b.mu.Unlock()
	for _, s := range ss {
		s.stop()
	}
}

// reply is one sent op's outcome.
type reply struct {
	lat    time.Duration
	status int
	body   []byte
}

func send(c *http.Client, s *server, o *op) (reply, error) {
	method, url := http.MethodPost, s.base+"/query"
	if o.kind == opUpdate {
		method, url = http.MethodPatch, s.base+"/docs/"+o.doc
	}
	t0 := time.Now()
	status, body, err := call(c, method, url, o.body)
	return reply{time.Since(t0), status, body}, err
}

// checkQuery compares a POST /query reply with the oracle.
func (b *bench) checkQuery(o *op, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("%s on %q: status %d: %.200s", o.tmpl, o.doc, r.status, r.body)
	}
	var qr queryReply
	if err := json.Unmarshal(r.body, &qr); err != nil {
		return fmt.Errorf("%s on %q: decoding reply: %v", o.tmpl, o.doc, err)
	}
	targets := []string{o.doc}
	if o.doc == "" {
		targets = targets[:0]
		for _, m := range b.in.ed {
			targets = append(targets, m.name)
		}
	}
	if len(qr.Results) != len(targets) {
		return fmt.Errorf("%s on %q: %d result rows, want %d", o.tmpl, o.doc, len(qr.Results), len(targets))
	}
	for i, name := range targets {
		row := qr.Results[i]
		want, ok := b.in.oracle.answer(name, o.version, o.src)
		switch {
		case !ok:
			return fmt.Errorf("%s on %s@%d: no expected answer", o.tmpl, name, o.version)
		case row.Doc != name || row.Result == nil:
			return fmt.Errorf("%s on %s: row %q error %q", o.tmpl, name, row.Doc, row.Error)
		case *row.Result != want:
			return fmt.Errorf("%s on %s@%d: answer differs from the oracle (%d bytes, want %d)",
				o.tmpl, name, o.version, len(*row.Result), len(want))
		}
	}
	return nil
}

// checkUpdate checks a PATCH reply and returns its update stats.
func checkUpdate(o *op, r reply) (*mhxquery.UpdateStats, error) {
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("update %q on %s: status %d: %.200s", o.src, o.doc, r.status, r.body)
	}
	var ur updateReply
	if err := json.Unmarshal(r.body, &ur); err != nil {
		return nil, fmt.Errorf("update on %s: decoding reply: %v", o.doc, err)
	}
	if int(ur.Version) != o.version {
		return nil, fmt.Errorf("update on %s: version %d, want %d", o.doc, ur.Version, o.version)
	}
	return &ur.Stats, nil
}

// exec sends o and checks the reply; it reports whether the reply was
// correct.
func (b *bench) exec(c *http.Client, s *server, o *op, log *clientLog) bool {
	r, err := send(c, s, o)
	var st *mhxquery.UpdateStats
	if err == nil {
		if o.kind == opQuery {
			err = b.checkQuery(o, r)
		} else {
			st, err = checkUpdate(o, r)
		}
	} else {
		err = fmt.Errorf("%s on %q: %w", o.tmpl, o.doc, err)
	}
	ok := b.check(err)
	if log != nil {
		log.add(o, r, ok, st)
	}
	return ok
}

// sample is one op of a measured phase.
type sample struct {
	// wall is the time since the client's previous op completed, or
	// since its window started: the op's share of the client's wall
	// time.
	wall time.Duration
	ms   float64 // client-observed latency
	kind opKind
	ok   bool
}

// clientLog is what one client saw in a measured phase.
type clientLog struct {
	last        time.Time // when the previous op completed
	samples     []sample
	queryNanos  int64 // summed client-observed query latency
	queries     int
	replyBytes  int64 // summed query reply sizes
	updateStats []mhxquery.UpdateStats
}

func (l *clientLog) add(o *op, r reply, ok bool, st *mhxquery.UpdateStats) {
	now := time.Now()
	l.samples = append(l.samples, sample{now.Sub(l.last), ms(r.lat), o.kind, ok})
	l.last = now
	if o.kind == opUpdate {
		if st != nil {
			l.updateStats = append(l.updateStats, *st)
		}
		return
	}
	l.queries++
	l.queryNanos += int64(r.lat)
	l.replyBytes += int64(len(r.body))
}

func (l *clientLog) merge(o *clientLog) {
	l.samples = append(l.samples, o.samples...)
	l.queryNanos += o.queryNanos
	l.queries += o.queries
	l.replyBytes += o.replyBytes
	l.updateStats = append(l.updateStats, o.updateStats...)
}

// rounds is how many rounds the untraced run of paper-read and lookup
// is cut into. Each round holds a read window of --seconds/rounds on
// the live server, then a chunk of the update probe (first half of the
// rounds) or reopensPerRound reopens (second half), then one set-up.
// Every timed metric thus draws its samples from the whole run and
// reports their median, so a stall of the machine in part of a run
// moves none of them.
const (
	rounds          = 10
	reopensPerRound = 2
	// blockOps caps the block: the read metrics are medians over
	// blocks of consecutive ops of a client's stream, each a whole
	// pass over its pool where the pool is no larger than this. A pass
	// is the same work on every run, so blocks differ only by how the
	// machine ran them, and most blocks miss a stall of a second or two.
	blockOps = 512
)

// window is one measured stretch of a run: the samples that completed
// in it and its wall time.
type window struct {
	samples []sample
	wall    time.Duration
}

// medianOver computes f over each window, on its samples of kind (all
// of them, when kind is nil), and returns the median, with the number
// of samples used.
func medianOver(ws []window, kind *opKind, f func(xs []sample, wall time.Duration) float64) (float64, int) {
	vals := make([]float64, len(ws))
	n := 0
	for i, w := range ws {
		var xs []sample
		for _, x := range w.samples {
			if kind == nil || x.kind == *kind {
				xs = append(xs, x)
			}
		}
		vals[i] = f(xs, w.wall)
		n += len(xs)
	}
	return median(vals), n
}

// blocks cuts one client's samples, in the order sent, into windows of
// size ops, each as long as the client's wall time its ops took. A
// trailing partial block is dropped unless it is the only one.
func blocks(xs []sample, size int) []window {
	var ws []window
	for len(xs) > 0 && (len(xs) >= size || len(ws) == 0) {
		n := min(size, len(xs))
		w := window{samples: xs[:n]}
		for _, x := range w.samples {
			w.wall += x.wall
		}
		ws = append(ws, w)
		xs = xs[n:]
	}
	return ws
}

// latencyQuantile returns an f for medianOver: the q-quantile of the
// window's latencies.
func latencyQuantile(q float64) func([]sample, time.Duration) float64 {
	return func(xs []sample, _ time.Duration) float64 {
		ms := make([]float64, len(xs))
		for i, x := range xs {
			ms[i] = x.ms
		}
		return quantile(ms, q)
	}
}

// okRate is an f for medianOver: correct ops per second.
func okRate(xs []sample, wall time.Duration) float64 {
	n := 0
	for _, x := range xs {
		if x.ok {
			n++
		}
	}
	return float64(n) / wall.Seconds()
}

// e2eResult is what the untraced run measured.
type e2eResult struct {
	metrics map[string]float64
	samples map[string]int
	phase   clientLog // every read window and probe chunk, merged
	// The traced run also keeps these for per-layer metrics: /metrics
	// of the live server and the writer, summed.
	before, after, reopened promSample
	queuedMax               float64
	dataDir                 string // the stopped writer's directory
}

// runE2E performs the untraced run. It sets up the live server, which
// answers the reads, and for paper-read and lookup a writer holding the
// edition and the scratch manuscript, which takes the update probe; a
// separate writer keeps the scratch manuscript out of the live server's
// fan-outs. After a warm-up it runs the rounds, then stops the writer,
// whose directory the reopens copy. Annotate writes through the live
// server itself, in one timed phase, with its set-ups and reopens
// after it.
func (b *bench) runE2E() (*e2eResult, error) {
	res := &e2eResult{metrics: map[string]float64{}, samples: map[string]int{}}
	admin := newConn()
	var setups, reopens []float64

	// The set-ups of the live server and the writer are the first
	// timed set-ups.
	stageStart := time.Now()
	live, el, err := b.setUp("live", admin)
	if err != nil {
		return nil, err
	}
	setups = append(setups, el)
	w := live
	var wBefore, wAfter promSample
	if b.in.scratch != nil {
		if w, el, err = b.setUp("writer", admin); err != nil {
			return nil, err
		}
		if !b.trace {
			setups = append(setups, el)
		} else if wBefore, err = w.scrape(admin); err != nil {
			return nil, err
		}
		if err := b.put(admin, w, b.in.scratch); err != nil {
			return nil, err
		}
	}
	b.stage("setup", stageStart)

	// Warm-up: every template over every manuscript.
	stageStart = time.Now()
	for i := range b.in.warm {
		b.exec(admin, live, &b.in.warm[i], nil)
	}
	b.stage("warm", stageStart)
	if b.trace {
		if res.before, err = live.scrape(admin); err != nil {
			return nil, err
		}
	}

	n, probeRounds := rounds, rounds/2
	if b.in.scratch == nil {
		n, probeRounds = 1, 0
	}
	// The writer stops after this round: after the probe's last chunk,
	// or after annotate's timed phase.
	writerDone := max(probeRounds, 1) - 1
	streams := make([]*clientStream, clients)
	conns := make([]*http.Client, clients)
	for c := range streams {
		streams[c] = b.in.streams[c].clone()
		conns[c] = newConn()
	}
	probe := b.in.probe
	sent := make([][]sample, clients) // each client's read samples, in order
	var updates []window
	for i := 0; i < n; i++ {
		if i > 0 && w != live && i <= writerDone {
			// The writer may still be writing an image after the
			// last probe chunk.
			stageStart = time.Now()
			if err := w.waitIdle(settleWait); err != nil {
				return nil, err
			}
			b.stage("settle", stageStart)
		}
		stageStart = time.Now()
		logs := b.readWindow(live, streams, conns, time.Duration(b.seconds)*time.Second/time.Duration(n), res)
		b.stage("timed", stageStart)
		for c := range logs {
			sent[c] = append(sent[c], logs[c].samples...)
		}
		rss, err := live.peakRSSMiB()
		if err != nil {
			return nil, err
		}
		res.metrics["server_rss_mb"] = rss
		if b.trace && i == n-1 {
			if res.after, err = live.scrape(admin); err != nil {
				return nil, err
			}
		}

		if i < probeRounds {
			// Once the live server is idle again (its collector done
			// with the read window's garbage), the next chunk of
			// sequential updates.
			stageStart = time.Now()
			if err := live.waitIdle(settleWait); err != nil {
				return nil, err
			}
			b.stage("settle", stageStart)
			chunk := probe[:len(probe)/(probeRounds-i)]
			probe = probe[len(chunk):]
			stageStart = time.Now()
			updates = append(updates, b.probeChunk(admin, w, chunk, res))
			b.stage("probe", stageStart)
		}
		if i == writerDone {
			if b.trace {
				if w != live {
					if wAfter, err = w.scrape(admin); err != nil {
						return nil, err
					}
				}
			}
			if err := b.stopWriter(admin, w, res); err != nil {
				return nil, err
			}
		}
		for r := 0; i > writerDone && r < reopensPerRound && len(reopens) < b.repeats(reopenRuns); r++ {
			if reopens, err = b.timeReopen(reopens, res); err != nil {
				return nil, err
			}
		}
		if !b.trace {
			if setups, err = b.timeSetUp(setups, admin); err != nil {
				return nil, err
			}
		}
	}
	for len(reopens) < b.repeats(reopenRuns) {
		if reopens, err = b.timeReopen(reopens, res); err != nil {
			return nil, err
		}
	}
	for len(setups) < b.repeats(setupRuns) {
		if setups, err = b.timeSetUp(setups, admin); err != nil {
			return nil, err
		}
	}

	res.before, res.after = sum(res.before, wBefore), sum(res.after, wAfter)
	var reads []window
	for c := range sent {
		reads = append(reads, blocks(sent[c], b.in.block)...)
	}
	if b.in.scratch == nil {
		updates = reads
	}
	query, update := opQuery, opUpdate
	// Blocks are one client's: the clients together complete clients
	// times a block's rate.
	rate, k := medianOver(reads, nil, okRate)
	res.metrics["ops_per_s"], res.samples["ops_per_s"] = rate*clients, k
	res.metrics["query_p50_ms"], k = medianOver(reads, &query, latencyQuantile(0.50))
	res.metrics["query_p99_ms"], _ = medianOver(reads, &query, latencyQuantile(0.99))
	res.samples["query_p50_ms"], res.samples["query_p99_ms"] = k, k
	res.metrics["update_p50_ms"], k = medianOver(updates, &update, latencyQuantile(0.50))
	res.metrics["update_p99_ms"], _ = medianOver(updates, &update, latencyQuantile(0.99))
	res.samples["update_p50_ms"], res.samples["update_p99_ms"] = k, k
	res.metrics["setup_s"], res.samples["setup_s"] = median(setups), len(setups)
	res.metrics["reopen_s"], res.samples["reopen_s"] = median(reopens), len(reopens)
	return res, nil
}

// setUp launches mhserve on a new empty directory and PUTs every
// manuscript of the edition by one client, in order; it returns the
// server and the seconds this took.
func (b *bench) setUp(name string, c *http.Client) (*server, float64, error) {
	t0 := time.Now()
	s, err := b.start(filepath.Join(b.work, name), c)
	if err != nil {
		return nil, 0, err
	}
	for _, m := range b.in.ed {
		if err := b.put(c, s, m); err != nil {
			return nil, 0, err
		}
	}
	return s, time.Since(t0).Seconds(), nil
}

// timeSetUp adds one set-up time to setups; the server it starts is
// stopped and its directory removed.
func (b *bench) timeSetUp(setups []float64, c *http.Client) ([]float64, error) {
	start := time.Now()
	defer b.stage("setup", start)
	s, el, err := b.setUp(fmt.Sprintf("setup%d", len(setups)), c)
	if err != nil {
		return nil, err
	}
	s.stop()
	os.RemoveAll(s.dir)
	return append(setups, el), nil
}

// timeReopen adds one reopen time to reopens.
func (b *bench) timeReopen(reopens []float64, res *e2eResult) ([]float64, error) {
	start := time.Now()
	defer b.stage("reopen", start)
	el, err := b.reopen(len(reopens), res)
	if err != nil {
		return nil, err
	}
	return append(reopens, el), nil
}

// stopWriter verifies the writer's edited documents, stops it
// gracefully, and measures its directory, which the reopens then copy.
func (b *bench) stopWriter(c *http.Client, w *server, res *e2eResult) error {
	start := time.Now()
	b.verifyFinal(c, w, false)
	b.stage("verify", start)
	w.stop()
	disk, err := dirBytes(w.dir)
	if err != nil {
		return err
	}
	xml := 0
	for _, m := range b.in.docs() {
		xml += m.xmlBytes
	}
	res.metrics["disk_bytes_per_xml_byte"] = float64(disk) / float64(xml)
	res.dataDir = w.dir
	return nil
}

// sum adds two /metrics scrapes series by series; either may be nil.
func sum(a, b promSample) promSample {
	s := promSample{}
	for k, v := range a {
		s[k] += v
	}
	for k, v := range b {
		s[k] += v
	}
	return s
}

// put ingests one manuscript, which must be created.
func (b *bench) put(c *http.Client, s *server, m *manuscript) error {
	status, body, err := call(c, http.MethodPut, s.base+"/docs/"+m.name, m.putBody)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	if !b.check(err) {
		return fmt.Errorf("PUT %s: %w", m.name, err)
	}
	return nil
}

// probeChunk sends ops one after another and returns their window.
func (b *bench) probeChunk(c *http.Client, s *server, ops []op, res *e2eResult) window {
	start := time.Now()
	log := clientLog{last: start}
	for i := range ops {
		b.exec(c, s, &ops[i], &log)
	}
	wall := time.Since(start)
	res.phase.merge(&log)
	return window{log.samples, wall}
}

// readWindow runs the closed-loop clients on s for d, each on its own
// connection: each sends what is left of its stream's fixed ops, then
// draws from its pool until d is up. Streams and connections carry on
// from window to window. It returns each client's log.
func (b *bench) readWindow(s *server, streams []*clientStream, conns []*http.Client, d time.Duration, res *e2eResult) []clientLog {
	logs := make([]clientLog, clients)
	stop := make(chan struct{})
	var gauges sync.WaitGroup
	if b.trace {
		gauges.Add(1)
		go func() {
			defer gauges.Done()
			c := newConn()
			t := time.NewTicker(gaugeEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				if p, err := s.scrape(c); err == nil {
					q := p[`mhx_pool_queued_jobs{class="fanout"}`] + p[`mhx_pool_queued_jobs{class="morsel"}`]
					if q > res.queuedMax {
						res.queuedMax = q
					}
				}
			}
		}()
	}
	start := time.Now()
	deadline := start.Add(d)
	for c := range logs {
		logs[c].last = start
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := streams[c]
			for st.fixedLeft() || time.Now().Before(deadline) {
				b.exec(conns[c], s, st.next(), &logs[c])
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	gauges.Wait()
	for i := range logs {
		res.phase.merge(&logs[i])
	}
	return logs
}

// verifyFinal checks every edited document's hierarchies, stats and
// fingerprints. After a reopen a failing document counts its
// acknowledged updates as missing.
func (b *bench) verifyFinal(c *http.Client, s *server, reopened bool) {
	for _, m := range b.in.docs() {
		f := b.in.oracle.final[m.name]
		if f == nil {
			continue
		}
		ok := b.check(b.checkInfo(c, s, m.name, f))
		for _, q := range fingerprintQueries {
			o := &op{kind: opQuery, tmpl: "fingerprint", src: q, doc: m.name,
				version: b.in.final[m.name], body: queryBody(q, m.name)}
			ok = b.exec(c, s, o, nil) && ok
		}
		if reopened && !ok {
			b.fail(f.updates, fmt.Errorf("%s: acknowledged updates missing after reopen", m.name))
		}
	}
}

func (b *bench) checkInfo(c *http.Client, s *server, name string, f *docFacts) error {
	status, body, err := call(c, http.MethodGet, s.base+"/docs/"+name, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", name, status)
	}
	var info docInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("GET %s: %v", name, err)
	}
	if !reflect.DeepEqual(info.Hierarchies, f.hierarchies) || info.Stats != f.stats {
		return fmt.Errorf("GET %s: hierarchies %v stats %+v, want %v %+v", name, info.Hierarchies, info.Stats, f.hierarchies, f.stats)
	}
	return nil
}

// reopen relaunches mhserve on a fresh copy of the stopped server's
// directory and times readiness plus one split answer per manuscript.
// The first reopen also verifies the edited documents and, in a traced
// run, scrapes /metrics.
func (b *bench) reopen(i int, res *e2eResult) (float64, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("reopen%d", i))
	if err := copyDir(res.dataDir, dir); err != nil {
		return 0, fmt.Errorf("copying the data directory: %w", err)
	}
	c := newConn()
	t0 := time.Now()
	s, err := b.start(dir, c)
	if err != nil {
		return 0, err
	}
	defer func() {
		s.stop()
		os.RemoveAll(dir)
	}()
	for _, o := range splitProbe(b.in.docs(), b.in.final) {
		b.exec(c, s, &o, nil)
	}
	el := time.Since(t0).Seconds()
	if i == 0 {
		b.verifyFinal(c, s, true)
		if b.trace {
			if res.reopened, err = s.scrape(c); err != nil {
				return 0, err
			}
		}
	}
	return el, nil
}
