// Command mhxq evaluates an extended-XQuery expression over a
// multihierarchical document.
//
// Usage:
//
//	mhxq -h name1=file1.xml -h name2=file2.xml [-f query.xq | -q 'query'] [-format xml|text] [-limit N]
//	mhxq -boethius -q 'count(/descendant::w)'
//	mhxq -boethius -limit 1 -q '//w'
//	mhxq -boethius -explain -q 'for $w in //w return string($w)'
//	mhxq -boethius -analyze -q '//w[@n]'
//	mhxq -boethius -update 'delete node (//dmg)[1]' -q 'count(//dmg)'
//	mhxq -boethius -update 'insert hierarchy "marks" from analyze-string(/, "ge")/child::m'
//
// Each -h flag registers one markup hierarchy (name=path). All encodings
// must share the root element name and base text. With -boethius the
// built-in Figure 1 fixture of the paper is loaded instead. With
// -explain the query is evaluated with per-operator instrumentation and
// a JSON object {"result":…, "plan":…} is printed, where plan is the
// physical operator tree of the whole lowered query — FLWOR clauses,
// predicates and calls included, with index-vs-scan decisions and
// cardinalities. -analyze upgrades that to EXPLAIN ANALYZE: each
// operator additionally reports its observed wall time ("nanos",
// inclusive of children; the root is the total query time). With
// -format text, -explain and -analyze print the text result followed
// by the plan as an indented text tree, one operator per line.
// With -limit N the query evaluates through the streaming cursor
// engine and stops after N result items (O(answer) work, not
// O(document)). With -update the update expression (see
// Document.Update) is applied first — copy-on-write, producing a new
// in-process version — and -q then queries the updated document; with
// no -q the new version number and update statistics are printed as
// JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mhxquery"
	"mhxquery/internal/corpus"
)

type hierFlags []string

func (h *hierFlags) String() string { return strings.Join(*h, ",") }

func (h *hierFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=file, got %q", v)
	}
	*h = append(*h, v)
	return nil
}

func main() {
	var hiers hierFlags
	flag.Var(&hiers, "h", "hierarchy as name=file.xml (repeatable)")
	query := flag.String("q", "", "query text")
	queryFile := flag.String("f", "", "file containing the query")
	format := flag.String("format", "xml", "output format: xml or text")
	boethius := flag.Bool("boethius", false, "use the built-in Figure 1 fixture")
	explain := flag.Bool("explain", false, "print the physical plan with per-operator cardinalities as JSON")
	analyze := flag.Bool("analyze", false, "like -explain, with observed per-operator wall time (EXPLAIN ANALYZE)")
	limit := flag.Int("limit", 0, "stop after N result items (0 = all); evaluation is lazy and does only the work the limit needs")
	update := flag.String("update", "", "apply an update expression before querying; without -q, print the new version and update stats as JSON")
	flag.Parse()

	if err := run(hiers, *query, *queryFile, *format, *boethius, *explain, *analyze, *limit, *update); err != nil {
		fmt.Fprintln(os.Stderr, "mhxq:", err)
		os.Exit(1)
	}
}

func run(hiers []string, query, queryFile, format string, boethius, explain, analyze bool, limit int, update string) error {
	src := query
	if queryFile != "" {
		b, err := os.ReadFile(queryFile)
		if err != nil {
			return err
		}
		src = string(b)
	}
	if src == "" && update == "" {
		return fmt.Errorf("no query given (-q, -f or -update)")
	}

	var hs []mhxquery.Hierarchy
	switch {
	case boethius:
		xml := corpus.BoethiusXML()
		for _, name := range corpus.BoethiusHierarchies() {
			hs = append(hs, mhxquery.Hierarchy{Name: name, XML: xml[name]})
		}
	case len(hiers) > 0:
		for _, spec := range hiers {
			name, file, _ := strings.Cut(spec, "=")
			b, err := os.ReadFile(file)
			if err != nil {
				return err
			}
			hs = append(hs, mhxquery.Hierarchy{Name: name, XML: string(b)})
		}
	default:
		return fmt.Errorf("no hierarchies given (-h name=file or -boethius)")
	}

	doc, err := mhxquery.Parse(hs...)
	if err != nil {
		return err
	}
	if update != "" {
		nd, stats, err := doc.Update(update)
		if err != nil {
			return err
		}
		doc = nd
		if src == "" {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(map[string]any{"version": doc.Version(), "stats": stats})
		}
	}
	if explain || analyze {
		runExplain := doc.Explain
		if analyze {
			runExplain = doc.ExplainAnalyze
		}
		res, plan, err := runExplain(src)
		if err != nil {
			return err
		}
		if format == "text" {
			fmt.Println(res.Text())
			fmt.Print(plan)
			return nil
		}
		rendered := res.String()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"result": rendered, "plan": plan})
	}
	var res mhxquery.Sequence
	if limit > 0 {
		st, err := doc.Stream(context.Background(), src)
		if err != nil {
			return err
		}
		if res, err = st.Take(limit); err != nil {
			return err
		}
	} else {
		var err error
		if res, err = doc.Query(src); err != nil {
			return err
		}
	}
	if format == "text" {
		fmt.Println(res.Text())
		return nil
	}
	fmt.Println(res.String())
	return nil
}
