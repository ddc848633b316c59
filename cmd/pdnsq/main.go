// Command pdnsq queries a passive-DNS dump (pdns.jsonl, as written by
// cmd/worldgen) the way the study queried Farsight's DNSDB: left-hand
// wildcard searches with optional type, year and stability filters, plus
// a per-year counting mode.
//
// Examples:
//
//	pdnsq -db data/pdns.jsonl -search '*.gov.br' -type NS -year 2015
//	pdnsq -db data/pdns.jsonl -search '*.gov.cn' -counts
//	pdnsq -db data/pdns.jsonl -search 'minfin.gov.ua' -stable=false
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"govdns/internal/analysis"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
)

func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "pdnsq: %v\n", err)
		os.Exit(1)
	}
}

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pdnsq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbPath := fs.String("db", "", "pdns.jsonl dump (required)")
	search := fs.String("search", "", "name or left-hand wildcard ('*.gov.br') to search (required)")
	typeStr := fs.String("type", "", "record type filter (NS, A, ...)")
	year := fs.Int("year", 0, "only records active in this year")
	stable := fs.Bool("stable", true, "apply the 7-day stability filter")
	counts := fs.Bool("counts", false, "print per-year distinct-name counts instead of records")
	limit := fs.Int("limit", 50, "maximum records to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *dbPath == "" || *search == "" {
		fs.Usage()
		return fmt.Errorf("-db and -search are required")
	}

	f, err := os.Open(*dbPath)
	if err != nil {
		return err
	}
	store, err := pdns.ReadJSONL(f)
	closeErr := f.Close()
	if err != nil {
		return fmt.Errorf("loading %s: %w", *dbPath, err)
	}
	if closeErr != nil {
		return closeErr
	}

	var rtype dnswire.Type
	if *typeStr != "" {
		t, ok := dnswire.ParseType(strings.ToUpper(*typeStr))
		if !ok {
			return fmt.Errorf("unknown record type %q", *typeStr)
		}
		rtype = t
	}

	// Wildcard vs exact search, DNSDB-style.
	var sets []pdns.RecordSet
	if suffix, ok := strings.CutPrefix(*search, "*."); ok {
		name, err := dnsname.Parse(suffix)
		if err != nil {
			return fmt.Errorf("bad search suffix: %w", err)
		}
		sets = store.WildcardSearch(name, rtype)
	} else {
		name, err := dnsname.Parse(*search)
		if err != nil {
			return fmt.Errorf("bad search name: %w", err)
		}
		sets = store.Lookup(name, rtype)
	}

	view := pdns.NewView(sets)
	if *stable {
		view = view.Stable(pdns.StabilityFilterDays)
	}
	if *year != 0 {
		from, to := pdns.YearRange(*year)
		view = view.Between(from, to)
	}

	if *counts {
		printCounts(stdout, view)
		return nil
	}
	printed := 0
	for _, rs := range view.Sets {
		if *limit > 0 && printed >= *limit {
			fmt.Fprintf(stdout, "... %d more (raise -limit)\n", len(view.Sets)-printed)
			break
		}
		printed++
		fmt.Fprintf(stdout, "%s  %s  %-40s %s .. %s  (count %d)\n",
			rs.RRName, rs.RRType, rs.RData, rs.FirstSeen, rs.LastSeen, rs.Count)
	}
	fmt.Fprintf(stderr, "%d record sets matched\n", len(view.Sets))
	return nil
}

// printCounts emits distinct-name counts per year over the view's whole
// span. The view is compiled once into a columnar corpus whose per-year
// activity bitmaps answer every year at once, instead of re-filtering
// and re-sorting the whole view per year.
func printCounts(w io.Writer, view *pdns.View) {
	if len(view.Sets) == 0 {
		fmt.Fprintln(w, "no matches")
		return
	}
	minYear, maxYear := view.Sets[0].FirstSeen.Year(), view.Sets[0].LastSeen.Year()
	for _, rs := range view.Sets {
		if y := rs.FirstSeen.Year(); y < minYear {
			minYear = y
		}
		if y := rs.LastSeen.Year(); y > maxYear {
			maxYear = y
		}
	}
	c := analysis.CompileCorpus(view, nil, minYear, maxYear)
	for i, n := range c.ActiveNamesPerYear() {
		fmt.Fprintf(w, "%d  %d names\n", minYear+i, n)
	}
}
