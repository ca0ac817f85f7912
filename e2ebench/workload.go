package main

// The edition (the 16 generated manuscripts every workload runs over),
// the query templates, and the seeded request streams of the three
// workloads. Everything here is a pure function of the seed: nothing
// reads the clock or the engine, so the same seed gives byte-identical
// inputs on every commit.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"mhxquery/internal/corpus"
)

const (
	// defaultSeed is the seed a run uses when --seed is not given;
	// heldOutSeed is kept out of tuning so that a claimed gain can be
	// re-checked on inputs nobody optimized for.
	defaultSeed = 20061
	heldOutSeed = 777013

	editionDocs = 16
	minWords    = 600  // 100× the Boethius fixture's six words
	maxWords    = 3000 // 500×
	damageRate  = 0.12
	restoreRate = 0.10

	// clients is the number of closed-loop clients, each on its own
	// keep-alive connection. One: on a two-core machine a second client
	// leaves mhserve's parallel workers no core to spare, so every
	// stall of the host lengthens the other client's queries too, and
	// run-to-run spreads about doubled.
	clients = 1
)

// splitmix is the SplitMix64 generator the corpus package also uses:
// small, deterministic and independent of math/rand's versions.
type splitmix struct{ state uint64 }

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// streamRNG returns the generator of one named stream under seed, so
// that streams drawn for different purposes never share draws.
func streamRNG(seed uint64, purpose string, index int) *splitmix {
	r := &splitmix{state: seed}
	for _, b := range []byte(purpose) {
		r.state ^= uint64(b)
		r.next()
	}
	r.state ^= uint64(index) * 0x2545f4914f6cdd1d
	r.next()
	return r
}

// manuscript is one generated document of the edition.
type manuscript struct {
	name  string
	gen   *corpus.Corpus
	words []string // the base text's words, in order
	// putBody is the pre-encoded PUT /docs/{name} request body.
	putBody  []byte
	xmlBytes int
}

// makeEdition generates the edition for seed: editionDocs manuscripts
// whose sizes step evenly from minWords to maxWords.
func makeEdition(seed uint64) ([]*manuscript, error) {
	ed := make([]*manuscript, editionDocs)
	for i := range ed {
		words := minWords + i*(maxWords-minWords)/(editionDocs-1)
		m, err := newManuscript(fmt.Sprintf("ms%02d", i), streamRNG(seed, "manuscript", i).next(), words)
		if err != nil {
			return nil, err
		}
		ed[i] = m
	}
	return ed, nil
}

// scratchManuscript is the mid-sized extra document the update probe
// of paper-read and lookup edits.
func scratchManuscript(seed uint64) (*manuscript, error) {
	return newManuscript("scratch", streamRNG(seed, "scratch", 0).next(), (minWords+maxWords)/2)
}

func newManuscript(name string, seed uint64, words int) (*manuscript, error) {
	g := corpus.Generate(corpus.Params{
		Seed:        seed,
		Words:       words,
		DamageRate:  damageRate,
		RestoreRate: restoreRate,
	})
	m := &manuscript{name: name, gen: g}
	for _, s := range g.Truth.WordSpans {
		m.words = append(m.words, g.Text[s.Start:s.End])
	}
	type hier struct {
		Name string `json:"name"`
		XML  string `json:"xml"`
	}
	var body struct {
		Hierarchies []hier `json:"hierarchies"`
	}
	for _, h := range corpus.BoethiusHierarchies() {
		body.Hierarchies = append(body.Hierarchies, hier{h, g.XML[h]})
		m.xmlBytes += len(g.XML[h])
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("encoding %s: %w", name, err)
	}
	m.putBody = b
	return m, nil
}

// template is a named query text.
type template struct{ name, src string }

// paperTemplates are the paper-read texts: the paper's Queries I.1,
// I.2, II.1 and III.1 verbatim as in bench_test.go, plus four
// extended-axis and FLWOR shapes over the same markup.
var paperTemplates = []template{
	{"I1", `for $l in /descendant::line
  [xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
return string($l)`},
	{"I2", `for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b> else $leaf
 , <br/> )`},
	{"II1", `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return if ($n[self::m]) then <b>{string($n)}</b> else string($n)
  ,
  <br/>
)`},
	{"III1", `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return
    if ($n[self::m][xancestor::res('restoration') or xdescendant::res('restoration') or overlapping::res('restoration')])
    then <i><b>{string($n)}</b></i>
    else <b>{string($n)}</b>
  ,
  <br/>
)`},
	{"split", `count(/descendant::w[overlapping::line])`},
	{"damaged", `count(/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg])`},
	{"nested", `for $v in /descendant::vline
	            for $w in $v/child::w
	            where exists($w/overlapping::line)
	            return string($w)`},
	{"restored", `count(/descendant::w[xancestor::res or xdescendant::res or overlapping::res])`},
}

// splitTemplate is the query the reopen probe sends to every manuscript.
var splitTemplate = paperTemplates[4]

// vocabulary is the corpus generator's word list (internal/corpus keeps
// it unexported); TestVocabularyMatchesGenerator keeps the two equal.
var vocabulary = []string{
	"se", "ond", "þa", "wæs", "mid", "ofer", "under", "cyning", "folc",
	"gesceaftum", "unawendendne", "singallice", "sibbe", "gecynde",
	"heofon", "eorðe", "wisdom", "weorc", "gewitt", "sawol", "lichoma",
	"freond", "feond", "dryhten", "rice", "gold", "seolfor", "treow",
	"wyrd", "willa", "andgit", "gemynd", "soðfæstnes", "leoht", "þeostru",
	"steorra", "sunne", "mona", "flod", "stream", "stan", "beorg", "dene",
	"holt", "feld", "hus", "heall", "duru", "weall", "boc",
}

// lookupPositions is the range of N in the positional lookup: with the
// 3×50 vocabulary lookups it gives about 600 distinct texts, well over
// the 128-entry compiled-query cache.
const lookupPositions = 450

// lookupTemplates returns the lookup workload's text pool.
func lookupTemplates() []template {
	var ts []template
	for _, w := range vocabulary {
		ts = append(ts,
			template{"first", fmt.Sprintf(`(//w[string(.)='%s'])[1]`, w)},
			template{"count", fmt.Sprintf(`count(//w[string(.)='%s'])`, w)},
			template{"dmgword", fmt.Sprintf(`exists(//dmg[contains(string(.),'%s')])`, w)})
	}
	for n := 1; n <= lookupPositions; n++ {
		ts = append(ts, template{"vline", fmt.Sprintf(`string((/descendant::vline)[%d])`, n)})
	}
	return ts
}

// opKind tells a query from an update.
type opKind uint8

const (
	opQuery opKind = iota
	opUpdate
)

// op is one request of a stream. Queries carry the key of their
// expected answer; updates the version the document must reach.
type op struct {
	kind opKind
	tmpl string // template name (queries)
	src  string // query or update text
	doc  string // target document; "" fans the query out over all
	// version is the target document's version the answer is taken at
	// (queries) or the version the update must produce (updates).
	version int
	body    []byte // pre-encoded request body
}

func queryBody(src, doc string) []byte {
	b, _ := json.Marshal(struct {
		Query string `json:"query"`
		Doc   string `json:"doc,omitempty"`
	}{src, doc}) // a struct of strings always encodes
	return b
}

func updateBody(src string) []byte {
	b, _ := json.Marshal(struct {
		Update string `json:"update"`
	}{src}) // a struct of strings always encodes
	return b
}

// paperPool returns one op per (paper template, manuscript) over docs,
// answered at version 0 unless versions says otherwise.
func paperPool(docs []*manuscript, versions map[string]int) []op {
	var pool []op
	for _, m := range docs {
		for _, t := range paperTemplates {
			pool = append(pool, op{kind: opQuery, tmpl: t.name, src: t.src, doc: m.name,
				version: versions[m.name], body: queryBody(t.src, m.name)})
		}
	}
	return pool
}

// lookupPool returns the lookup ops: every text against every
// manuscript, and every text once more without a document (fan-out).
// Fan-out ops appear len(ed)/4 times each, so a uniform draw from the
// pool sends one request in five without a document.
func lookupPool(ed []*manuscript) []op {
	var pool []op
	for _, t := range lookupTemplates() {
		for _, m := range ed {
			pool = append(pool, op{kind: opQuery, tmpl: t.name, src: t.src, doc: m.name, body: queryBody(t.src, m.name)})
		}
		fan := op{kind: opQuery, tmpl: t.name, src: t.src, body: queryBody(t.src, "")}
		for i := 0; i < len(ed)/4; i++ {
			pool = append(pool, fan)
		}
	}
	return pool
}

// ownDocs returns client c's share of the edition (annotate).
func ownDocs(ed []*manuscript, c int) []*manuscript {
	var own []*manuscript
	for i, m := range ed {
		if i%clients == c {
			own = append(own, m)
		}
	}
	return own
}

// docEdits tracks, without the engine, what the annotate stream has
// done to one manuscript, so that each next update is valid.
type docEdits struct {
	words   []string
	notes   int
	dmg     int
	overlay bool
	version int
}

// overlayHierarchy is the name of the analyze-string overlay the
// annotate stream adds and removes; a second overlay owning m would be
// refused with MHXQ0102, so adds and removes alternate.
const overlayHierarchy = "ov"

// updateKinds is the number of update forms nextUpdate draws from.
const updateKinds = 5

// nextUpdate returns one valid update of the given kind (an insert of
// a note when the kind has nothing to act on) and records its effect.
// Notes go into even-numbered words and replacements into odd ones, so
// a replacement never meets a note.
func nextUpdate(r *splitmix, kind int, st *docEdits) string {
	st.version++
	switch kind {
	case 1:
		k := 1 + 2*r.intn(len(st.words)/2)
		old := st.words[k]
		repl := make([]byte, len(old))
		for i := range repl {
			repl[i] = byte('a' + r.intn(26))
		}
		st.words[k] = string(repl)
		return fmt.Sprintf(`replace value of node (//w)[%d] with "%s"`, k+1, repl)
	case 2:
		if st.dmg > 0 {
			k := 1 + r.intn(st.dmg)
			st.dmg--
			return fmt.Sprintf(`rename node (//dmg)[%d] as "gap"`, k)
		}
	case 3:
		if st.notes > 0 {
			k := 1 + r.intn(st.notes)
			st.notes--
			return fmt.Sprintf(`delete node (//note)[%d]`, k)
		}
	case 4:
		st.overlay = !st.overlay
		if st.overlay {
			return `insert hierarchy "` + overlayHierarchy + `" from analyze-string(/, "nd")/child::m`
		}
		return `delete hierarchy "` + overlayHierarchy + `"`
	}
	k := 2 * r.intn((len(st.words)+1)/2)
	st.notes++
	return fmt.Sprintf(`insert node note into (//w)[%d]`, k+1)
}

// annotateUpdates is the number of updates in each annotate client's
// fixed stream, one op in four. It is a count, not a rate, so the log a
// reopen replays is the same on every commit; the timed phase lasts
// until both streams are done and at least --seconds.
const annotateUpdates = 225

// probeUpdates is the length of the sequential update probe that
// paper-read and lookup run on a scratch manuscript after their timed
// phase, so that every workload reports update latency; at 1000
// samples the 99th percentile has ten beyond it.
const probeUpdates = 1000

// editStream returns a fixed stream over docs: readsPerUpdate
// paper-read queries, then one update, repeated until updates updates
// have been drawn. It also returns each document's version after the
// stream. Reads cycle through every (template, document) pair, and
// updates through the documents and the update kinds, each in seeded
// order, so that every seed gives about the same mix.
func editStream(r *splitmix, docs []*manuscript, updates, readsPerUpdate int) ([]op, map[string]int) {
	states := map[string]*docEdits{}
	for _, m := range docs {
		states[m.name] = &docEdits{
			words: append([]string(nil), m.words...),
			dmg:   len(m.gen.Truth.DamageSpans),
		}
	}
	reads := &cycler{n: len(docs) * len(paperTemplates), rng: r}
	targets := &cycler{n: len(docs), rng: r}
	kinds := &cycler{n: updateKinds, rng: r}
	var ops []op
	for u := 0; u < updates; u++ {
		for i := 0; i < readsPerUpdate; i++ {
			k := reads.next()
			m, t := docs[k/len(paperTemplates)], paperTemplates[k%len(paperTemplates)]
			ops = append(ops, op{kind: opQuery, tmpl: t.name, src: t.src, doc: m.name,
				version: states[m.name].version, body: queryBody(t.src, m.name)})
		}
		m := docs[targets.next()]
		st := states[m.name]
		src := nextUpdate(r, kinds.next(), st)
		ops = append(ops, op{kind: opUpdate, tmpl: "update", src: src, doc: m.name,
			version: st.version, body: updateBody(src)})
	}
	versions := map[string]int{}
	for name, st := range states {
		versions[name] = st.version
	}
	return ops, versions
}

// cycler yields 0..n-1 in a seeded random order, reshuffling after
// each pass: a draw without replacement that keeps every index equally
// frequent however long it runs.
type cycler struct {
	n     int
	rng   *splitmix
	order []int
	i     int
}

func (c *cycler) next() int {
	if c.i == len(c.order) {
		if c.order == nil {
			c.order = make([]int, c.n)
			for i := range c.order {
				c.order[i] = i
			}
		}
		for i := len(c.order) - 1; i > 0; i-- {
			j := c.rng.intn(i + 1)
			c.order[i], c.order[j] = c.order[j], c.order[i]
		}
		c.i = 0
	}
	c.i++
	return c.order[c.i-1]
}

// clientStream is one client's request sequence: its fixed ops first,
// then its pool in cycles of seeded order for as long as the caller
// asks.
type clientStream struct {
	fixed []op
	pool  []op
	i     int
	draw  cycler
}

func newClientStream(seed uint64, workload string, c int, fixed, pool []op) clientStream {
	return clientStream{fixed: fixed, pool: pool, draw: cycler{n: len(pool), rng: streamRNG(seed, workload, c)}}
}

// fixedLeft reports whether fixed ops remain.
func (s *clientStream) fixedLeft() bool { return s.i < len(s.fixed) }

func (s *clientStream) next() *op {
	if s.i < len(s.fixed) {
		s.i++
		return &s.fixed[s.i-1]
	}
	return &s.pool[s.draw.next()]
}

// clone returns an independent copy of the stream at its position.
func (s *clientStream) clone() *clientStream {
	c := *s
	r := *s.draw.rng
	c.draw.rng = &r
	c.draw.order = append([]int(nil), s.draw.order...)
	return &c
}

// prefix returns the first n ops of the stream without advancing it.
func (s *clientStream) prefix(n int) []op {
	s = s.clone()
	out := make([]op, n)
	for i := range out {
		out[i] = *s.next()
	}
	return out
}

// describeOp renders an op for the stream hash.
func describeOp(o *op) string {
	return strings.Join([]string{strconv.Itoa(int(o.kind)), o.doc, strconv.Itoa(o.version), o.src}, "\x1f")
}
