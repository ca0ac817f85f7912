package main

// The answer oracle: every answer the server gives is compared with one
// computed here, before the server starts. split and damaged take their
// answers from the generator's ground truth; every other query is
// evaluated in-process on a document parsed straight from the generated
// XML, and edit streams are replayed in order on such documents.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"mhxquery"
	"mhxquery/internal/corpus"
)

// answerKey names one expected answer: a query text on a document at a
// version.
type answerKey struct {
	doc     string
	version int
	src     string
}

// docFacts is what GET /docs/{name} must show for an edited document
// at the end of a run; the answers to fingerprintQueries at its final
// version are in the oracle's answers.
type docFacts struct {
	hierarchies []string
	stats       mhxquery.Stats
	updates     int // acknowledged updates that produced this state
}

// fingerprintQueries check an edited manuscript's whole state: text,
// notes, renamed damage and the overlay hierarchy.
var fingerprintQueries = []string{
	`string(/)`,
	`count(//note)`,
	`for $n in //note return string($n)`,
	`count(//dmg)`,
	`count(//gap)`,
	`count(//m)`,
}

// oracle holds the expected answers of one workload.
type oracle struct {
	answers map[answerKey]string
	// final holds each edited document's expected end state.
	final map[string]*docFacts
}

func (o *oracle) answer(doc string, version int, src string) (string, bool) {
	a, ok := o.answers[answerKey{doc, version, src}]
	return a, ok
}

// merge adds r's answers and end states; callers serialize merges.
func (o *oracle) merge(r *replica) {
	for k, v := range r.answers {
		o.answers[k] = v
	}
	for k, v := range r.final {
		o.final[k] = v
	}
}

// parseManuscript builds the document of m directly from its XML.
func parseManuscript(m *manuscript) (*mhxquery.Document, error) {
	var hs []mhxquery.Hierarchy
	for _, h := range corpus.BoethiusHierarchies() {
		hs = append(hs, mhxquery.Hierarchy{Name: h, XML: m.gen.XML[h]})
	}
	d, err := mhxquery.Parse(hs...)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", m.name, err)
	}
	return d, nil
}

// evalString evaluates src on d and renders it as mhserve's default
// (xml) format does.
func evalString(d *mhxquery.Document, src string) (string, error) {
	seq, err := d.Query(src)
	if err != nil {
		return "", err
	}
	return seq.String(), nil
}

// truthAnswer returns the ground-truth answer of a template on an
// unedited manuscript, where the generator has one.
func truthAnswer(m *manuscript, tmpl string) (string, bool) {
	switch tmpl {
	case "split":
		return strconv.Itoa(len(m.gen.Truth.SplitWords)), true
	case "damaged":
		return strconv.Itoa(len(m.gen.Truth.DamagedWords)), true
	}
	return "", false
}

// replica is an in-process copy of some manuscripts that a stream of
// ops is replayed on, recording every read's answer at the version it
// was read at.
type replica struct {
	src     map[string]*manuscript
	docs    map[string]*mhxquery.Document
	updates map[string]int
	answers map[answerKey]string
	final   map[string]*docFacts
}

func newReplica(ms []*manuscript) (*replica, error) {
	r := &replica{src: map[string]*manuscript{}, docs: map[string]*mhxquery.Document{},
		updates: map[string]int{}, answers: map[answerKey]string{}, final: map[string]*docFacts{}}
	for _, m := range ms {
		d, err := parseManuscript(m)
		if err != nil {
			return nil, err
		}
		r.src[m.name], r.docs[m.name] = m, d
	}
	return r, nil
}

// read records the answer of a query op (fanning out when it names no
// document), unless already known.
func (r *replica) read(o *op) error {
	targets := []string{o.doc}
	if o.doc == "" {
		targets = targets[:0]
		for name := range r.docs {
			targets = append(targets, name)
		}
	}
	for _, name := range targets {
		k := answerKey{name, o.version, o.src}
		if _, ok := r.answers[k]; ok {
			continue
		}
		if o.version == 0 {
			if a, ok := truthAnswer(r.src[name], o.tmpl); ok {
				r.answers[k] = a
				continue
			}
		}
		a, err := evalString(r.docs[name], o.src)
		if err != nil {
			return fmt.Errorf("oracle: %s on %s@%d: %w", o.tmpl, name, o.version, err)
		}
		r.answers[k] = a
	}
	return nil
}

// run replays ops in order: reads record answers, updates advance the
// replica and must reach the version the stream expects.
func (r *replica) run(ops []op) error {
	for i := range ops {
		o := &ops[i]
		if o.kind == opQuery {
			if err := r.read(o); err != nil {
				return err
			}
			continue
		}
		d, _, err := r.docs[o.doc].Update(o.src)
		if err != nil {
			return fmt.Errorf("oracle: update %q on %s: %w", o.src, o.doc, err)
		}
		if int(d.Version()) != o.version {
			return fmt.Errorf("oracle: update on %s reached version %d, want %d", o.doc, d.Version(), o.version)
		}
		r.docs[o.doc] = d
		r.updates[o.doc]++
	}
	return nil
}

// recordFinal records the end state of every edited document.
func (r *replica) recordFinal() error {
	for name, n := range r.updates {
		d := r.docs[name]
		r.final[name] = &docFacts{hierarchies: d.Hierarchies(), stats: d.Stats(), updates: n}
		for _, q := range fingerprintQueries {
			if err := r.read(&op{kind: opQuery, tmpl: "fingerprint", src: q, doc: name, version: int(d.Version())}); err != nil {
				return err
			}
		}
	}
	return nil
}

// oracleWorkers is how many goroutines readAnswers splits the edition
// over.
const oracleWorkers = 2

// readAnswers evaluates every query of pools on the unedited edition,
// split over oracleWorkers workers by document.
func readAnswers(ed []*manuscript, pools ...[]op) (*oracle, error) {
	o := &oracle{answers: map[answerKey]string{}, final: map[string]*docFacts{}}
	var mu sync.Mutex
	errs := make([]error, oracleWorkers)
	var wg sync.WaitGroup
	for w := 0; w < oracleWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []*manuscript
			for i := w; i < len(ed); i += oracleWorkers {
				mine = append(mine, ed[i])
			}
			r, err := newReplica(mine)
			if err != nil {
				errs[w] = err
				return
			}
			for _, pool := range pools {
				for i := range pool {
					if pool[i].doc != "" && r.docs[pool[i].doc] == nil {
						continue
					}
					if err := r.read(&pool[i]); err != nil {
						errs[w] = err
						return
					}
				}
			}
			mu.Lock()
			o.merge(r)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// replayStreams replays each stream (with its own documents) on a
// replica of its own, in parallel, then the reads in after, and merges
// answers and end states into o.
func replayStreams(o *oracle, docs [][]*manuscript, streams [][]op, after [][]op) error {
	var mu sync.Mutex
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := newReplica(docs[i])
			if err == nil {
				err = r.run(streams[i])
			}
			if err == nil {
				err = r.run(after[i])
			}
			if err == nil {
				err = r.recordFinal()
			}
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			o.merge(r)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// inputHash digests the edition, the request streams and the expected
// answers, so two runs can show that they measured the same inputs.
func inputHash(docs []*manuscript, streams [][]op, o *oracle) string {
	h := sha256.New()
	for _, m := range docs {
		fmt.Fprintf(h, "doc %s %d\n", m.name, len(m.putBody))
		h.Write(m.putBody)
	}
	for c, s := range streams {
		fmt.Fprintf(h, "stream %d %d\n", c, len(s))
		for i := range s {
			h.Write([]byte(describeOp(&s[i])))
			h.Write([]byte{'\n'})
		}
	}
	keys := make([]answerKey, 0, len(o.answers))
	for k := range o.answers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.doc != b.doc {
			return a.doc < b.doc
		}
		if a.version != b.version {
			return a.version < b.version
		}
		return a.src < b.src
	})
	for _, k := range keys {
		fmt.Fprintf(h, "answer %s %d %q %q\n", k.doc, k.version, k.src, o.answers[k])
	}
	names := make([]string, 0, len(o.final))
	for n := range o.final {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := o.final[n]
		fmt.Fprintf(h, "final %s %v %+v %d\n", n, f.hierarchies, f.stats, f.updates)
	}
	return hex.EncodeToString(h.Sum(nil))
}
