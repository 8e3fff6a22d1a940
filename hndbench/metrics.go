package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric describes one reported number. BENCHMARK.json lists the same
// names, units, directions and bounds (the package test keeps the two in
// step); layer and moves say where the number comes from and which
// end-to-end metric, on which workload, it should move.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, share of the median
	layer, moves       string
}

// endToEnd are the untraced run's metrics.
var endToEnd = []metric{
	{"rank_p50_ms", "ms", "lower", 0.24, "end-to-end", "/v1/rank latency, median"},
	{"rank_p90_ms", "ms", "lower", 0.24, "end-to-end", "/v1/rank latency, 90th percentile"},
	{"write_p50_ms", "ms", "lower", 0.24, "end-to-end", "/v1/observe and /v1/observebatch acknowledgement latency, median"},
	{"write_p90_ms", "ms", "lower", 0.24, "end-to-end", "/v1/observe and /v1/observebatch acknowledgement latency, 90th percentile"},
	{"throughput_rps", "1/s", "higher", 0.24, "end-to-end", "completed requests per second in the timed phase"},
	{"setup_s", "s", "lower", 0.25, "end-to-end", "serve.New to the first exact rank of every tenant (durable: restart), median of the run's set-ups"},
	{"peak_rss_mb", "MB", "lower", 0.2, "end-to-end", "process VmHWM"},
	{"spearman_truth", "rho", "higher", 0.03, "end-to-end", "final exact ranking vs generator abilities, mean over tenants"},
	{"spearman_exact", "rho", "higher", 0.02, "end-to-end", "final exact ranking vs a direct unsharded HND() solve, mean over tenants"},
}

// perLayer are the traced run's metrics. Times are means per call.
var perLayer = []metric{
	{name: "serve.rank_handler_ms", unit: "ms", better: "lower", layer: "serve", moves: "rank_p50_ms on write-rank"},
	{name: "serve.observe_handler_ms", unit: "ms", better: "lower", layer: "serve", moves: "write_p50_ms on ingest-durable"},
	{name: "serve.encode_ms", unit: "ms", better: "lower", layer: "serve", moves: "rank_p50_ms on write-rank"},
	{name: "serve.coalesced_ratio", unit: "ratio", better: "higher", layer: "serve", moves: "throughput_rps on ingest-durable (0 while one client never overlaps ranks)"},
	{name: "serve.stale_ratio", unit: "ratio", better: "higher", layer: "serve", moves: "rank_p50_ms on ingest-durable"},
	{name: "engine.observe_ms", unit: "ms", better: "lower", layer: "engine", moves: "write_p50_ms on write-rank"},
	{name: "engine.rank_ms", unit: "ms", better: "lower", layer: "engine", moves: "rank_p50_ms on write-rank"},
	{name: "engine.cache_hit_ratio", unit: "ratio", better: "higher", layer: "engine", moves: "rank_p50_ms on ingest-durable"},
	{name: "engine.certified_hit_ratio", unit: "ratio", better: "higher", layer: "engine", moves: "rank_p50_ms on write-rank"},
	{name: "engine.cache_hits", unit: "count", better: "higher", layer: "engine", moves: "rank_p50_ms on ingest-durable"},
	{name: "engine.cache_misses", unit: "count", better: "lower", layer: "engine", moves: "rank_p50_ms on ingest-durable"},
	{name: "engine.certified_hits", unit: "count", better: "higher", layer: "engine", moves: "rank_p50_ms on write-rank"},
	{name: "engine.certified_fallbacks", unit: "count", better: "lower", layer: "engine", moves: "rank_p50_ms on write-rank"},
	{name: "response.clone_ms", unit: "ms", better: "lower", layer: "response", moves: "write_p50_ms and peak_rss_mb on write-rank"},
	{name: "response.encode_ms", unit: "ms", better: "lower", layer: "response", moves: "rank_p50_ms on write-rank"},
	{name: "response.csr_rebuilds_full", unit: "count", better: "lower", layer: "response", moves: "rank_p50_ms on write-rank"},
	{name: "response.csr_rebuilds_delta", unit: "count", better: "lower", layer: "response", moves: "rank_p50_ms on write-rank"},
	{name: "response.norm_rebuilds_full", unit: "count", better: "lower", layer: "response", moves: "rank_p50_ms on write-rank"},
	{name: "response.norm_rebuilds_delta", unit: "count", better: "lower", layer: "response", moves: "rank_p50_ms on write-rank"},
	{name: "core.update_ms", unit: "ms", better: "lower", layer: "core", moves: "rank_p50_ms on write-rank"},
	{name: "core.certify_ms", unit: "ms", better: "lower", layer: "core", moves: "rank_p50_ms on write-rank"},
	{name: "core.solve_ms", unit: "ms", better: "lower", layer: "core", moves: "rank_p50_ms on write-rank"},
	{name: "core.orient_ms", unit: "ms", better: "lower", layer: "core", moves: "rank_p50_ms on write-rank"},
	{name: "core.iterations", unit: "count", better: "lower", layer: "core", moves: "rank_p90_ms on write-rank"},
	{name: "core.batch_solve_ms", unit: "ms", better: "lower", layer: "core", moves: "rank_p90_ms on ingest-durable"},
	{name: "mat.matvec_pair_us", unit: "us", better: "lower", layer: "mat", moves: "rank_p50_ms on write-rank"},
	{name: "durable.append_ms", unit: "ms", better: "lower", layer: "durable", moves: "write_p50_ms on ingest-durable"},
	{name: "durable.fsyncs_per_write", unit: "count", better: "lower", layer: "durable", moves: "write_p50_ms and throughput_rps on ingest-durable"},
	{name: "durable.bytes_per_obs", unit: "B", better: "lower", layer: "durable", moves: "write_p50_ms and throughput_rps on ingest-durable"},
	{name: "durable.snapshot_ms", unit: "ms", better: "lower", layer: "durable", moves: "write_p90_ms on ingest-durable"},
	{name: "durable.recover_s", unit: "s", better: "lower", layer: "durable", moves: "setup_s on ingest-durable"},
	{name: "sharding.rank_ms", unit: "ms", better: "lower", layer: "sharding", moves: "rank_p50_ms and spearman_exact on ingest-durable"},
	{name: "sharding.rank_all_ms", unit: "ms", better: "lower", layer: "sharding", moves: "rank_p50_ms and spearman_exact on ingest-durable"},
	{name: "refresh.refreshes_per_s", unit: "1/s", better: "higher", layer: "refresh", moves: "rank_p90_ms and spearman_exact on ingest-durable"},
	{name: "refresh.mean_staleness", unit: "gen", better: "lower", layer: "refresh", moves: "rank_p90_ms and spearman_exact on ingest-durable"},
	{name: "trace.untraced_rps", unit: "1/s", better: "higher", layer: "trace", moves: "handler replay throughput without spans"},
	{name: "trace.traced_rps", unit: "1/s", better: "higher", layer: "trace", moves: "handler replay throughput with spans"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", layer: "trace", moves: "tracing overhead: 1 - traced/untraced throughput"},
	{name: "reconcile.ladder_ms", unit: "ms", better: "lower", layer: "trace", moves: "sum of stage self times per rank request"},
	{name: "reconcile.served_ms", unit: "ms", better: "lower", layer: "trace", moves: "handler time of the writes and the rank per rank request"},
	{name: "reconcile.residual_pct", unit: "%", better: "lower", layer: "trace", moves: "(served - ladder) / served"},
	{name: "reconcile.engine_ms", unit: "ms", better: "lower", layer: "trace", moves: "engine observe + rank time per rank request"},
	{name: "reconcile.engine_residual_pct", unit: "%", better: "lower", layer: "trace", moves: "(engine - ladder without JSON) / engine"},
}

// report is one run's output: header facts, metric values and the gate's
// verdict.
type report struct {
	w          *workload
	seed       int64
	trace      bool
	phases     []string
	samples    map[string][]int
	setups     []float64
	notes      []string
	metrics    map[string]float64
	attempted  int
	failed     int
	violations []string
}

// phase records one phase's request counts for the header.
func (r *report) phase(name string, c phaseCounts) {
	r.phases = append(r.phases, fmt.Sprintf("%s sent=%d succeeded=%d failed=%d", name, c.sent, c.ok, c.failed))
}

// count adds scripted phases' requests to the run's attempted and failed
// totals, warm-up included: a failed request anywhere in the script fails
// the run.
func (r *report) count(phases ...phaseCounts) {
	for _, c := range phases {
		r.attempted += c.sent
		r.failed += c.failed
	}
}

// correct reports whether the gate passed.
func (r *report) correct() bool { return len(r.violations) == 0 && r.failed == 0 }

// print writes the header lines and, last, the one-line JSON result.
func (r *report) print(out io.Writer) error {
	w := r.w
	fmt.Fprintf(out, "# workload %s: %s\n", w.name, shape(w))
	fmt.Fprintf(out, "# seed %d, trace %v, GOMAXPROCS %d, nproc %d, %s, commit %s\n",
		r.seed, r.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
	fmt.Fprintf(out, "# cpu %s\n", cpuModel())
	wal := "in-memory server"
	if w.durable {
		wal = "server WAL fsync " + serverFsync.String()
	}
	if r.trace {
		wal += "; ladder logs fsync " + ladderFsync.String()
	}
	fmt.Fprintf(out, "# %s; closed loop, %d client(s), %d connection(s)\n", wal, w.clients, w.clients)
	for _, p := range r.phases {
		fmt.Fprintf(out, "# phase %s\n", p)
	}
	if len(r.samples) > 0 {
		keys := make([]string, 0, len(r.samples))
		for k := range r.samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "# samples %s_p50/p90 per window (median over %d windows): %v\n", k, windows, r.samples[k])
		}
	}
	if len(r.setups) > 0 {
		fmt.Fprintf(out, "# setup_s samples: %s\n", floats(r.setups))
	}
	if r.attempted > 0 {
		fmt.Fprintf(out, "# fail_ratio %.6g (%d failed / %d attempted)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	for _, v := range r.violations {
		fmt.Fprintf(out, "# CHECK FAILED: %s\n", v)
	}
	table := endToEnd
	if r.trace {
		table = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(table))
	for _, m := range table {
		v, ok := r.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(out, "# %-32s %14.6g %-6s [%s] moves %s\n", m.name, v, m.unit, m.layer, m.moves)
		ms[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// shape is the one-line description of a workload's tenants and traffic.
func shape(w *workload) string {
	users := 0
	for _, t := range w.tenants {
		users += t.users
	}
	t0 := w.tenants[0]
	return fmt.Sprintf("%d tenant(s), %d users in all, largest %dx%dx%d, shards %d, durable %v, max staleness %d, preload %.0f%%",
		len(w.tenants), users, t0.users, t0.items, t0.options, w.shards, w.durable, w.maxStale, w.preload*100)
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// commit is the VCS revision stamped into the binary when it was built
// from a git checkout, and otherwise a digest of the Go sources under the
// working directory (the repository root the benchmark runs from).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("unknown (no VCS stamp; Go source digest %x)", h.Sum(nil)[:8])
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
