// Command worldgen generates the synthetic world and dumps its datasets
// to disk: the passive-DNS history (JSON lines), the GeoIP ASN database
// (CSV), and one zone file per requested government suffix.
//
// Usage:
//
//	worldgen -out ./data [-scale 0.1] [-seed 42] [-zones gov.br,gov.cn]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"govdns/internal/dnsname"
	"govdns/internal/worldgen"
	"govdns/internal/zone"
)

func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "worldgen: %v\n", err)
		os.Exit(1)
	}
}

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("worldgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "data", "output directory")
	scale := fs.Float64("scale", 0.1, "population scale")
	seed := fs.Int64("seed", 42, "generation seed")
	zones := fs.String("zones", "", "comma-separated government suffixes whose parent zones to export as zone files")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	w := worldgen.Generate(worldgen.Config{Seed: *seed, Scale: *scale})
	active := worldgen.Build(w)

	pdnsPath := filepath.Join(*out, "pdns.jsonl")
	if err := writeFile(pdnsPath, w.PDNS.WriteJSONL); err != nil {
		return fmt.Errorf("writing %s: %w", pdnsPath, err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d record sets)\n", pdnsPath, w.PDNS.Len())

	geoPath := filepath.Join(*out, "geoip-asn.csv")
	if err := writeFile(geoPath, active.Geo.WriteCSV); err != nil {
		return fmt.Errorf("writing %s: %w", geoPath, err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d ranges)\n", geoPath, active.Geo.Len())

	listPath := filepath.Join(*out, "querylist.txt")
	if err := writeFile(listPath, func(f io.Writer) error {
		for _, name := range active.QueryList {
			if _, err := fmt.Fprintln(f, name); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("writing %s: %w", listPath, err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d names)\n", listPath, len(active.QueryList))

	if *zones == "" {
		return nil
	}
	for _, raw := range strings.Split(*zones, ",") {
		suffix, err := dnsname.Parse(strings.TrimSpace(raw))
		if err != nil {
			return fmt.Errorf("bad suffix %q: %w", raw, err)
		}
		z, ok := active.ParentZone(suffix)
		if !ok {
			return fmt.Errorf("no government parent zone %s (unknown suffix?)", suffix)
		}
		zonePath := filepath.Join(*out, strings.TrimSuffix(suffix.String(), ".")+".zone")
		if err := writeFile(zonePath, func(f io.Writer) error { return zone.WriteFile(f, z) }); err != nil {
			return fmt.Errorf("writing %s: %w", zonePath, err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d records)\n", zonePath, z.Len())
	}
	return nil
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
