// Command govdns runs the full reproduction study end to end and prints
// every table and figure of the paper with measured-vs-paper context,
// or the one that -experiment names. It is the harness behind
// EXPERIMENTS.md. (Performance is measured by the bench/ module,
// `make bench`.) Progress goes to stderr: each phase's wall time, then
// a closing line with the total wall, CPU time and peak RSS, which
// `make paper` prints for the paper-scale run.
//
// Usage:
//
//	govdns [-scale 0.1] [-seed 42] [-concurrency 128] [-timeout 25ms]
//	       [-no-second-round] [-stability-days 7]
//	       [-experiment fig9] [-csvdir out/] [-expectations]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"govdns"
	"govdns/internal/core"
	"govdns/internal/measure"
	"govdns/internal/pdns"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "govdns: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	scale := flag.Float64("scale", 0.1, "population scale (1.0 = paper size, ~190k PDNS domains)")
	seed := flag.Int64("seed", 42, "generation seed")
	concurrency := flag.Int("concurrency", measure.DefaultConcurrency, "scan worker count")
	timeout := flag.Duration("timeout", 25*time.Millisecond, "per-query timeout")
	noSecondRound := flag.Bool("no-second-round", false, "disable the second measurement round")
	stabilityDays := flag.Int("stability-days", pdns.StabilityFilterDays, "PDNS stability filter in days (negative disables)")
	experiment := flag.String("experiment", "", "print one section of the report (funnel fig2 fig4 fig6 fig7 fig8 fig9 table1 table2 table3 fig10 fig11 fig13); empty = all")
	csvDir := flag.String("csvdir", "", "also export every experiment as CSV files into this directory")
	listExpectations := flag.Bool("expectations", false, "print the paper's expected values and exit")
	flag.Parse()

	if *listExpectations {
		keys := make([]string, 0, len(core.PaperExpectations))
		for k := range core.PaperExpectations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-22s %s\n", k, core.PaperExpectations[k])
		}
		return nil
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "generating world (scale %.3f, seed %d)...\n", *scale, *seed)
	study := govdns.New(govdns.Options{
		Seed:               *seed,
		Scale:              *scale,
		Concurrency:        *concurrency,
		QueryTimeout:       *timeout,
		DisableSecondRound: *noSecondRound,
		StabilityDays:      *stabilityDays,
	})
	fmt.Fprintf(os.Stderr, "world ready in %v: %d domain histories, %d PDNS record sets, %d query targets\n",
		time.Since(start).Round(time.Millisecond),
		len(study.World.Domains), study.World.PDNS.Len(), len(study.Active.QueryList))

	scanStart := time.Now()
	fmt.Fprintf(os.Stderr, "scanning %d domains...\n", len(study.Active.QueryList))
	if err := study.RunActive(context.Background()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scan finished in %v\n\n", time.Since(scanStart).Round(time.Millisecond))

	if *csvDir != "" {
		if err := study.WriteCSVs(*csvDir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "CSV exports written to %s\n", *csvDir)
	}
	var err error
	if *experiment != "" {
		err = study.WriteExperiment(os.Stdout, *experiment)
	} else {
		err = study.WriteReport(os.Stdout)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "done in %v%s\n", time.Since(start).Round(time.Millisecond), usage())
	return nil
}
