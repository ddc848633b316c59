// Command govdns runs the full reproduction study end to end and prints
// every table and figure of the paper with measured-vs-paper context,
// or the one that -experiment names. It is the harness behind
// EXPERIMENTS.md. (Performance is measured by the bench/ module,
// `make bench`.) Progress goes to stderr: each phase's wall time (the
// world's with the peak RSS so far), then a closing line with the total
// wall, CPU time and peak RSS, which `make paper` prints for the
// paper-scale run.
//
// Usage:
//
//	govdns [-scale 0.1] [-seed 42] [-concurrency 128] [-timeout 25ms]
//	       [-no-second-round] [-stability-days 7]
//	       [-experiment fig9] [-csvdir out/] [-expectations]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"govdns"
	"govdns/internal/core"
	"govdns/internal/measure"
	"govdns/internal/pdns"
)

func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "govdns: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("govdns", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.1, "population scale (1.0 = paper size, ~190k PDNS domains)")
	seed := fs.Int64("seed", 42, "generation seed")
	concurrency := fs.Int("concurrency", measure.DefaultConcurrency, "scan worker count")
	timeout := fs.Duration("timeout", 25*time.Millisecond, "per-query timeout")
	noSecondRound := fs.Bool("no-second-round", false, "disable the second measurement round")
	stabilityDays := fs.Int("stability-days", pdns.StabilityFilterDays, "PDNS stability filter in days (negative disables)")
	experiment := fs.String("experiment", "", "print one section of the report (funnel fig2 fig4 fig6 fig7 fig8 fig9 table1 table2 table3 fig10 fig11 fig13); empty = all")
	csvDir := fs.String("csvdir", "", "also export every experiment as CSV files into this directory")
	listExpectations := fs.Bool("expectations", false, "print the paper's expected values and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *experiment != "" {
		if err := core.CheckExperiment(*experiment); err != nil {
			return err
		}
	}
	if *listExpectations {
		keys := make([]string, 0, len(core.PaperExpectations))
		for k := range core.PaperExpectations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "%-22s %s\n", k, core.PaperExpectations[k])
		}
		return nil
	}

	start := time.Now()
	fmt.Fprintf(stderr, "generating world (scale %.3f, seed %d)...\n", *scale, *seed)
	study := govdns.New(govdns.Options{
		Seed:               *seed,
		Scale:              *scale,
		Concurrency:        *concurrency,
		QueryTimeout:       *timeout,
		DisableSecondRound: *noSecondRound,
		StabilityDays:      *stabilityDays,
	})
	_, rss := usage()
	fmt.Fprintf(stderr, "world ready in %v: %d domain histories, %d PDNS record sets, %d query targets%s\n",
		time.Since(start).Round(time.Millisecond),
		len(study.World.Domains), study.World.PDNS.Len(), len(study.Active.QueryList), rss)

	scanStart := time.Now()
	fmt.Fprintf(stderr, "scanning %d domains...\n", len(study.Active.QueryList))
	if err := study.RunActive(ctx); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "scan finished in %v\n\n", time.Since(scanStart).Round(time.Millisecond))

	if *csvDir != "" {
		if err := study.WriteCSVs(*csvDir); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "CSV exports written to %s\n", *csvDir)
	}
	var err error
	if *experiment != "" {
		err = study.WriteExperiment(stdout, *experiment)
	} else {
		err = study.WriteReport(stdout)
	}
	if err != nil {
		return err
	}
	cpu, rss := usage()
	fmt.Fprintf(stderr, "done in %v%s%s\n", time.Since(start).Round(time.Millisecond), cpu, rss)
	return nil
}
