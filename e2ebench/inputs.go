package main

import (
	"fmt"
)

// workloads are the workloads e2ebench runs; interactions.json's
// not_gated map names those BENCHMARK.json leaves out, and why.
var workloads = []string{"paper-read", "lookup", "annotate"}

// hashPrefix is how many ops of each endless client stream the input
// hash covers.
const hashPrefix = 4096

// inputs is everything one run sends and expects, all derived from the
// seed before the server starts.
type inputs struct {
	workload string
	ed       []*manuscript // the edition, PUT during set-up
	// scratch is the document the update probe edits (paper-read and
	// lookup); probe is that probe's sequential update stream.
	scratch *manuscript
	probe   []op
	warm    []op // every template over every manuscript
	streams [clients]clientStream
	// block is how many consecutive ops of a client's stream make one
	// block of the read metrics: a whole pass over its pool, at most
	// blockOps.
	block int
	// final is each document's version at the end of the run.
	final  map[string]int
	oracle *oracle
	hash   string
}

// docs returns every document the run stores.
func (in *inputs) docs() []*manuscript {
	if in.scratch == nil {
		return in.ed
	}
	return append(append([]*manuscript(nil), in.ed...), in.scratch)
}

// splitProbe returns one split query per document at its final version.
func splitProbe(docs []*manuscript, versions map[string]int) []op {
	var ops []op
	for _, m := range docs {
		ops = append(ops, op{kind: opQuery, tmpl: splitTemplate.name, src: splitTemplate.src,
			doc: m.name, version: versions[m.name], body: queryBody(splitTemplate.src, m.name)})
	}
	return ops
}

// lookupWarm returns one text of each lookup template per manuscript.
func lookupWarm(ed []*manuscript) []op {
	var ops []op
	seen := map[string]bool{}
	for _, t := range lookupTemplates() {
		if seen[t.name] {
			continue
		}
		seen[t.name] = true
		for _, m := range ed {
			ops = append(ops, op{kind: opQuery, tmpl: t.name, src: t.src, doc: m.name, body: queryBody(t.src, m.name)})
		}
	}
	return ops
}

// buildInputs generates the edition, streams and expected answers of
// workload under seed.
func buildInputs(workload string, seed uint64) (*inputs, error) {
	ed, err := makeEdition(seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{workload: workload, ed: ed, final: map[string]int{}}
	switch workload {
	case "paper-read", "lookup":
		pool, warm := paperPool(ed, nil), paperPool(ed, nil)
		if workload == "lookup" {
			pool, warm = lookupPool(ed), lookupWarm(ed)
		}
		in.warm = warm
		for c := range in.streams {
			in.streams[c] = newClientStream(seed, workload, c, nil, pool)
		}
		in.block = min(len(pool), blockOps)
		if in.oracle, err = readAnswers(ed, pool, warm, splitProbe(ed, nil)); err != nil {
			return nil, err
		}
		if in.scratch, err = scratchManuscript(seed); err != nil {
			return nil, err
		}
		scratch := []*manuscript{in.scratch}
		var versions map[string]int
		in.probe, versions = editStream(streamRNG(seed, "probe", 0), scratch, probeUpdates, 0)
		in.final[in.scratch.name] = versions[in.scratch.name]
		err = replayStreams(in.oracle, [][]*manuscript{scratch}, [][]op{in.probe},
			[][]op{splitProbe(scratch, versions)})
	case "annotate":
		in.warm = paperPool(ed, nil)
		var docs [][]*manuscript
		var streams, after [][]op
		for c := range in.streams {
			own := ownDocs(ed, c)
			ops, versions := editStream(streamRNG(seed, "annotate", c), own, annotateUpdates, 3)
			tail := paperPool(own, versions)
			in.streams[c] = newClientStream(seed, workload, c, ops, tail)
			in.block = min(len(tail), blockOps)
			for name, v := range versions {
				in.final[name] = v
			}
			docs = append(docs, own)
			streams = append(streams, append(paperPool(own, nil), ops...))
			after = append(after, append(tail, splitProbe(own, versions)...))
		}
		in.oracle = &oracle{answers: map[answerKey]string{}, final: map[string]*docFacts{}}
		err = replayStreams(in.oracle, docs, streams, after)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	hashed := [][]op{in.warm, in.probe}
	for _, s := range in.streams {
		hashed = append(hashed, s.prefix(len(s.fixed)+hashPrefix))
	}
	in.hash = inputHash(in.docs(), hashed, in.oracle)
	return in, nil
}
