// Command e2ebench is the end-to-end benchmark of mhserve. It builds
// cmd/mhserve from the tree it runs in, starts it as a child process on
// a data directory inside the tree's .bench_build, and drives it over
// loopback HTTP with one closed-loop client on a keep-alive
// connection, checking every answer against an oracle computed
// in-process. Read windows, update-probe chunks, set-ups and reopens
// take turns through the run, and each end-to-end metric is a median
// over its turns. A traced run (--trace 1) adds an in-process replay of the
// same seeded request stream with a span around each call into a layer,
// and reports per-layer metrics instead of end-to-end ones.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload paper-read --seed 20061 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it holds the
// run's environment, policies, input hash, sample counts, error ratio
// and (traced) per-layer self times. Workloads, metrics and what each
// per-layer metric should move are described in interactions.json.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	_ "embed"
)

//go:embed interactions.json
var interactionsJSON []byte

// interactions is the parsed interaction map.
type interactions struct {
	Seeds struct {
		Default uint64 `json:"default"`
		HeldOut uint64 `json:"held_out"`
	} `json:"seeds"`
	Workloads map[string]string `json:"workloads"`
	NotGated  map[string]string `json:"not_gated"`
	// NotGatedMetrics are measured and printed in the detail line, but
	// left out of BENCHMARK.json's end-to-end metrics, with the reason.
	NotGatedMetrics map[string]string `json:"not_gated_metrics"`
	PerLayer        []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "ops/s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"update_p50_ms", "ms"},
	{"setup_s", "s"},
	{"reopen_s", "s"},
	{"server_rss_mb", "MiB"},
	{"disk_bytes_per_xml_byte", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "paper-read", "workload: paper-read, lookup or annotate")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "total length of the read windows in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds int, trace bool) error {
	var im interactions
	if err := json.Unmarshal(interactionsJSON, &im); err != nil {
		return fmt.Errorf("interactions.json: %w", err)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "mhserve")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	base := filepath.Join(root, ".bench_build", "e2ebench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	bin := filepath.Join(base, "mhserve")
	if err := buildServer(root, bin); err != nil {
		return err
	}
	// Flush what building wrote, so that its writeback does not run
	// into the timed phases.
	syscall.Sync()
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	steal0, total0 := hostCPU()
	start := time.Now()
	in, err := buildInputs(workload, seed)
	if err != nil {
		return err
	}
	// The oracle's documents are garbage now; collect them before
	// anything is timed, so this process's own GC stays out of the way.
	runtime.GC()
	b := &bench{in: in, seconds: seconds, trace: trace, work: work, bin: bin, stages: map[string]float64{}}
	b.stage("inputs", start)
	defer b.stopAll()
	res, err := b.runE2E()
	if err != nil {
		return err
	}
	detail := map[string]any{
		"workload":    workload,
		"seed":        seed,
		"trace":       trace,
		"input_hash":  in.hash,
		"samples":     res.samples,
		"environment": environment(root, work),
		"policies":    policies,
	}
	out := result{Metrics: map[string]metric{}}
	if trace {
		start := time.Now()
		tr, err := b.runTrace(res.dataDir)
		if err != nil {
			return err
		}
		b.stage("trace", start)
		spansPath := filepath.Join(base, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
		if err := tr.spans.write(spansPath); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		detail["spans_file"] = spansPath
		self := map[string]float64{}
		for name, d := range tr.spans.selfTimes() {
			self[name] = ms(d)
		}
		detail["self_ms"] = self
		values := layerMetrics(res, tr)
		for _, m := range im.PerLayer {
			v, ok := values[m.Name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not computed", m.Name)
			}
			out.Metrics[m.Name] = metric{v, m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{res.metrics[m.name], m.unit}
		}
		notGated := map[string]float64{}
		for name := range im.NotGatedMetrics {
			notGated[name] = res.metrics[name]
		}
		detail["not_gated_metrics"] = notGated
	}
	out.Attempted, out.Failed = b.attempted, b.failed
	out.Correct = b.failed == 0
	detail["error_ratio"] = ratio(float64(b.failed), float64(b.attempted))
	detail["errors"] = b.errs
	detail["stages_s"] = b.stages
	steal1, total1 := hostCPU()
	detail["steal_share"] = ratio(steal1-steal0, total1-total0)
	b.stopAll()
	d, err := json.Marshal(map[string]any{"detail": detail})
	if err != nil {
		return err
	}
	r, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", d, r)
	return nil
}

// policies are the durability and storage settings the runs use: the
// server defaults, stated so that results from other settings are not
// compared with these.
var policies = map[string]any{
	"wal_fsync":          "one fsync per commit group, flush window 0",
	"snapshot_every":     "256 logged updates per document (default)",
	"snapshot_bytes":     "4 MiB logged per document (default)",
	"mmap":               true,
	"clients":            fmt.Sprintf("closed-loop clients: %d, each on its own keep-alive connection", clients),
	"latencies":          "client-observed over loopback on the host that runs the benchmark, not on a storage device",
	"setup_s_excludes":   "building mhserve",
	"update_probe":       fmt.Sprintf("paper-read and lookup: %d sequential updates on a scratch manuscript, held by a second server (the writer) with a copy of the edition, in %d chunks", probeUpdates, rounds/2),
	"annotate_updates":   fmt.Sprintf("%d per client, one op in four; the phase lasts until both streams end and at least --seconds", annotateUpdates),
	"reopen_and_setup_n": fmt.Sprintf("setup_s is the median of at least %d set-ups, reopen_s of %d reopens of the stopped writer's directory", setupRuns, reopenRuns),
	"rounds":             fmt.Sprintf("paper-read and lookup run %d rounds, each a read window of --seconds/%d, then a probe chunk (first half) or %d reopens (second half), then a set-up; annotate has one timed phase, then its set-ups and reopens", rounds, rounds, reopensPerRound),
	"medians":            fmt.Sprintf("ops_per_s and the query percentiles are medians over blocks of consecutive ops of a client's stream, each a whole pass over its pool (at most %d ops); the update percentiles of paper-read and lookup are medians over the probe chunks, of annotate over its blocks", blockOps),
}

// hostCPU returns the steal and total CPU time of the machine so far,
// in clock ticks, from /proc/stat (zeros where it cannot be read). The
// share of steal over a run tells a run slowed by other guests of the
// host from one slowed by the program.
func hostCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0
		}
		// Fields 9 and 10 (guest time) are already counted in user
		// and nice.
		if i <= 8 {
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// environment records where the run happened.
func environment(root, work string) map[string]any {
	env := map[string]any{
		"nproc":             runtime.NumCPU(),
		"client_gomaxprocs": runtime.GOMAXPROCS(0),
		// mhserve inherits the environment, so it sees the same value.
		"server_gomaxprocs": serverGOMAXPROCS(),
		"go":                runtime.Version(),
		"commit":            commitOf(root),
		"data_fs":           filesystemOf(work),
	}
	return env
}

func serverGOMAXPROCS() string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	return fmt.Sprintf("%d (default: nproc)", runtime.NumCPU())
}

// commitOf returns the checked-out commit, or a digest of the Go
// sources when the tree is not a git checkout.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err = filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if e.Type().IsRegular() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", strings.TrimPrefix(path, root), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sources sha256:" + hex.EncodeToString(h.Sum(nil))
}

// filesystemOf names the filesystem type holding dir.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// layerMetrics derives every per-layer metric of a traced run.
func layerMetrics(res *e2eResult, tr *traceResult) map[string]float64 {
	v := map[string]float64{}
	for k, x := range tr.setup {
		v[k] = x
	}
	for k, x := range tr.analyze {
		v[k] = x
	}
	ph := &res.phase
	b, a := res.before, res.after
	nq := float64(ph.queries)
	evals := delta(b, a, "mhx_query_seconds_count")
	// A fan-out's documents are evaluated in parallel, so their summed
	// evaluation time can exceed the request's; the mean per document
	// is subtracted instead.
	v["mhserve.overhead_us_mean"] = ratio(float64(ph.queryNanos)/1e3, nq) - ratio(delta(b, a, "mhx_query_seconds_sum")*1e6, evals)
	v["mhserve.response_bytes_mean"] = ratio(float64(ph.replyBytes), nq)
	hitRatio := func(cache string) float64 {
		h := delta(b, a, `mhx_cache_requests_total{cache="`+cache+`",result="hit"}`)
		m := delta(b, a, `mhx_cache_requests_total{cache="`+cache+`",result="miss"}`)
		return ratio(h, h+m)
	}
	v["collection.compile_cache_hit_ratio"] = hitRatio("compile")
	v["collection.plan_cache_hit_ratio"] = hitRatio("plan")
	hq := func(family string, q, scale float64) float64 {
		return histDelta(b, a, family, q) * scale
	}
	v["collection.query_ms_p50"] = hq("mhx_query_seconds", 0.50, 1e3)
	v["collection.query_ms_p99"] = hq("mhx_query_seconds", 0.99, 1e3)
	v["collection.update_commit_ms_p50"] = hq("mhx_update_commit_seconds", 0.50, 1e3)
	v["collection.update_commit_ms_p99"] = hq("mhx_update_commit_seconds", 0.99, 1e3)
	v["collection.snapshots"] = delta(b, a, "mhx_snapshots_total")
	v["wal.fsync_ms_p50"] = hq("mhx_wal_fsync_seconds", 0.50, 1e3)
	v["wal.fsync_ms_p99"] = hq("mhx_wal_fsync_seconds", 0.99, 1e3)
	appends := delta(b, a, "mhx_wal_appends_total")
	v["wal.records_per_fsync"] = ratio(appends, delta(b, a, "mhx_wal_syncs_total"))
	v["wal.bytes_per_update"] = ratio(delta(b, a, "mhx_wal_bytes_total"), appends)
	v["wal.replayed_records"] = res.reopened["mhx_recovery_replayed_total"]
	v["wal.replay_ms"] = tr.replayMS
	v["core.nameindex_builds"] = res.reopened["mhx_nameindex_builds_total"]
	v["core.nameindex_build_ms"] = res.reopened["mhx_nameindex_build_seconds_total"] * 1e3
	v["sched.morsels_per_query"] = ratio(delta(b, a, "mhx_query_morsels_total"), evals)
	v["sched.parallel_query_ratio"] = ratio(delta(b, a, "mhx_query_parallel_queries_total"), evals)
	v["sched.morsel_ms_p99"] = hq("mhx_query_morsel_seconds", 0.99, 1e3)
	v["sched.queued_jobs_max"] = res.queuedMax

	var copied, idxP, idxL, synP, synL, bounds float64
	for _, s := range ph.updateStats {
		copied += float64(s.NodesCopied)
		idxP += float64(s.IndexesPatched)
		idxL += float64(s.IndexesLazy)
		synP += float64(s.SynopsesPatched)
		synL += float64(s.SynopsesLazy)
		if s.BoundsRecomputed {
			bounds++
		}
	}
	nu := float64(len(ph.updateStats))
	v["core.nodes_copied_per_update"] = ratio(copied, nu)
	v["core.index_patch_ratio"] = ratio(idxP, idxP+idxL)
	v["core.synopsis_patch_ratio"] = ratio(synP, synP+synL)
	v["core.bounds_recomputed_ratio"] = ratio(bounds, nu)

	ss := tr.spans
	p := func(name, tag string, q float64, unit time.Duration) float64 {
		return quantile(ss.durations(name, tag, unit), q)
	}
	v["collection.fanout_ms_p50"] = p("collection.QueryAll", "", 0.5, time.Millisecond)
	v["xquery.compile_us_p50"] = p("xquery.Compile", "", 0.5, time.Microsecond)
	v["xquery.plan_us_p50"] = p("xquery.PlanFor", "", 0.5, time.Microsecond)
	v["xquery.exec_us_p50"] = p("xquery.EvalContext", "", 0.5, time.Microsecond)
	v["xquery.exec_us_p99"] = p("xquery.EvalContext", "", 0.99, time.Microsecond)
	for _, t := range paperTemplates {
		v["xquery.exec_us."+t.name] = p("xquery.EvalContext", t.name, 0.5, time.Microsecond)
	}
	v["xquery.serialize_us_p50"] = p("xquery.Serialize", "", 0.5, time.Microsecond)
	v["xquery.update_compile_us_p50"] = p("xquery.CompileUpdate", "", 0.5, time.Microsecond)
	v["core.apply_ms_p50"] = p("core.Apply", "", 0.5, time.Millisecond)
	v["core.apply_ms_p99"] = p("core.Apply", "", 0.99, time.Millisecond)

	v["runtime.allocs_per_op"] = tr.allocs
	v["runtime.alloc_bytes_per_op"] = tr.allocB
	v["runtime.gc_cpu_fraction"] = tr.gcCPU
	v["trace.overhead_ratio"] = ratio(float64(tr.traced), float64(tr.untraced))
	return v
}
