// Command hndbench is the repository's serving benchmark. It runs one named
// workload per process against an in-process serve.Server on a loopback
// net/http listener, driven by closed-loop clients whose request sequences
// are pure functions of -seed, checks the results, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; hndbench/run.sh builds and runs it):
//
//	hndbench -workload write-rank|ingest-durable -seed N
//	         -seconds S -trace 0|1 [-workdir DIR]
//
// -trace 0 measures the end-to-end metrics over HTTP with no tracing.
// -trace 1 replays the same scripts and seed in-process with spans around
// each layer's public functions and reports the per-layer metrics, the
// write-then-rank stage reconciliation and the tracing overhead.
//
// The run exits non-zero when the correctness gate fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// options are the parsed command-line flags. maxRequests caps the scripted
// requests per client in each measured phase (0 = until seconds run out);
// the package tests set it to replay a fixed amount of work.
type options struct {
	seed        int64
	seconds     float64
	workdir     string
	maxRequests int
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hndbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: write-rank or ingest-durable")
	seed := fs.Int64("seed", 1, "seed of the generated data and request scripts")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.String("trace", "0", "1 runs the traced per-layer replay instead of the end-to-end run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "hndbench", "work"), "scratch directory for data directories and logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hndbench:", err)
		return 2
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "hndbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hndbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o := options{seed: *seed, seconds: *seconds, workdir: dir}
	rep, err := measure(w, traced, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hndbench:", err)
		return 1
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hndbench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// measure generates the workload's inputs and runs it traced or untraced.
func measure(w *workload, traced bool, o options) (*report, error) {
	tds, err := generate(w, o.seed)
	if err != nil {
		return nil, err
	}
	if traced {
		return runTraced(w, tds, o)
	}
	return runUntraced(w, tds, o)
}
