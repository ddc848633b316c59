// Command bench is the repository's benchmark: five workloads, each its
// own process, measured from outside the program through the packages'
// public functions. See README.md for the glossary and BENCHMARK.json
// at the repository root for the contract the driver holds it to.
//
//	go run -C bench .                              every workload, end-to-end metrics
//	go run -C bench . -trace 1                     every workload, per-layer metrics and span files
//	go run -C bench . -workload serve_zipf         one workload
//	go run -C bench . -sets 3                      the whole suite three times into one results file
//	go run -C bench . -compare old.json new.json   verdict per workload and metric
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

// runConfig is one workload run's inputs. The seed is the only input
// to generation; the program under test sees only what was generated.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string
}

func main() {
	workload := flag.String("workload", "", "run this workload only (default: all, one process each)")
	seed := flag.Int64("seed", 42, "seed for every generated input")
	seconds := flag.Int("seconds", 13, "seconds each workload measures for")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, span files, attribution table")
	sets := flag.Int("sets", 1, "repeat the whole suite this many times into one results file")
	outDir := flag.String("out", "out", "directory for results.json, span files and scratch files")
	compare := flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	benchmarkPath := flag.String("benchmark", "../BENCHMARK.json", "BENCHMARK.json, for -compare's bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare old.json new.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *benchmarkPath))
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected arguments: %v", flag.Args())
	}
	if *seconds < 1 || *sets < 1 || (*trace != 0 && *trace != 1) {
		fatal(2, "-seconds and -sets must be at least 1, -trace 0 or 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, outDir: *outDir}
	if *workload == "" {
		os.Exit(runSuite(cfg, *sets))
	}

	rep, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fatal(1, "%s: %v", *workload, err)
	}
	if err := rep.print(os.Stdout); err != nil {
		fatal(1, "%v", err)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

func runWorkload(ctx context.Context, cfg runConfig) (*report, error) {
	switch cfg.workload {
	case "scan_sim_mix", "scan_sim_healthy", "scan_udp_loopback":
		return runScan(ctx, cfg)
	case "serve_zipf":
		return runServe(ctx, cfg)
	case "analysis_report":
		return runAnalysis(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload (have %v)", workloads)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}
