// Command benchreport regenerates every table and figure of the paper
// and prints them alongside the paper's published values, one experiment
// per section. It is the harness behind EXPERIMENTS.md. (Performance is
// measured by the bench/ module, `make bench`.)
//
// Usage:
//
//	benchreport [-scale 0.1] [-seed 42] [-experiment fig9] [-csvdir out/]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"govdns"
	"govdns/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	scale := flag.Float64("scale", 0.1, "population scale")
	seed := flag.Int64("seed", 42, "generation seed")
	experiment := flag.String("experiment", "", "run one experiment (fig2 fig4 fig6 fig7 fig8 fig9 table1 table2 table3 fig10 fig11 fig13); empty = all")
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
	study, err := govdns.Run(context.Background(), govdns.Options{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "study complete in %v\n\n", time.Since(start).Round(time.Millisecond))

	if *csvDir != "" {
		if err := study.WriteCSVs(*csvDir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "CSV exports written to %s\n", *csvDir)
	}

	if *experiment == "" {
		return study.WriteReport(os.Stdout)
	}
	return writeOne(study, strings.ToLower(*experiment))
}

// writeOne renders a single experiment by id.
func writeOne(study *govdns.Study, id string) error {
	w := os.Stdout
	switch id {
	case "fig2", "fig3":
		for _, y := range study.Fig2And3() {
			fmt.Fprintf(w, "%d domains=%d countries=%d nameservers=%d\n",
				y.Year, y.Domains, y.Countries, y.Nameservers)
		}
	case "fig4":
		counts := study.Fig4()
		for _, code := range sortedByValue(counts) {
			fmt.Fprintf(w, "%s %d\n", code, counts[code])
		}
	case "fig6":
		for _, c := range study.Fig6() {
			fmt.Fprintf(w, "%d total=%d new=%.1f%% from-base=%.1f%% base-gone=%.1f%%\n",
				c.Year, c.Total, c.NewPct(), c.FromBasePct(), c.BaseGonePct())
		}
	case "fig7":
		for _, y := range study.Fig2And3() {
			fmt.Fprintf(w, "%d d1NS-private=%.1f%% all-private=%.1f%%\n",
				y.Year, y.PrivateSinglePct(), y.PrivateAllPct())
		}
	case "fig8", "fig9":
		ar, err := study.Fig8And9()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, ">=2NS=%.1f%% stale-singles=%.1f%% countries-no-single=%d countries>=10%%=%v\n",
			ar.AtLeastTwoPct, ar.SingleStalePct, ar.CountriesNoSingle, ar.CountriesOver10PctSingle)
	case "table1":
		rows, err := study.Table1()
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s n=%-6d ip>1=%.1f%% /24>1=%.1f%% asn>1=%.1f%%\n",
				r.Scope, r.Domains, r.MultiIPPct, r.Multi24Pct, r.MultiASNPct)
		}
	case "table2":
		for _, year := range []int{study.StartYear(), study.EndYear()} {
			fmt.Fprintf(w, "--- %d ---\n", year)
			for _, r := range study.Table2(year) {
				fmt.Fprintf(w, "%-20s domains=%d (%.2f%%) d1P=%d groups=%d\n",
					r.Label, r.Domains, r.DomainsPct, r.SingleProvider, r.SubRegions)
			}
		}
	case "table3":
		for _, year := range []int{study.StartYear(), study.EndYear()} {
			fmt.Fprintf(w, "--- %d ---\n", year)
			for _, r := range study.Table3(year, 11) {
				fmt.Fprintf(w, "%-22s domains=%d (%.2f%%) groups=%d countries=%d\n",
					r.Label, r.Domains, r.DomainsPct, r.SubRegions, r.Countries)
			}
		}
	case "fig10":
		ds, err := study.Fig10()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "any=%.1f%% partial=%.1f%% full=%.1f%% of %d\n",
			ds.AnyDefectPct(), ds.PartialPct(), ds.FullPct(), ds.WithData)
	case "fig11", "fig12":
		hr, err := study.Fig11And12()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "available=%d affected=%d countries=%d median=%s\n",
			len(hr.AvailableNSDomains), hr.AffectedDomains, hr.Countries, hr.MedianPrice)
	case "fig13", "fig14":
		cs, err := study.Fig13And14()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "P=C %.1f%% of %d; P!=C with defect %.1f%%\n",
			cs.EqualPct, cs.Responsive, cs.InconsistentWithDefectPct)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

func sortedByValue(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
