// Command govtrace is the triage tool for resolution-trace JSONL files
// written by govscan -trace (the flight recorder's retained
// exemplars). It renders a recorded domain measurement as an ASCII
// resolution tree — one line per span: stage, server, outcome,
// duration, fault annotations — and structurally diffs two traces of
// the same domain, which is the first stop for any digest-divergence
// or classification-flip report.
//
//	govtrace list traces.jsonl
//	govtrace tree traces.jsonl
//	govtrace tree -domain city.gov.br. traces.jsonl
//	govtrace diff -domain city.gov.br. before.jsonl after.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"govdns/internal/dnsname"
	"govdns/internal/trace"
)

func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "govtrace: %v\n", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: govtrace list <traces.jsonl> | tree [-domain name] <traces.jsonl> | diff [-domain name] <a.jsonl> <b.jsonl>")
}

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "list":
		return runList(args[1:], stdout, stderr)
	case "tree":
		return runTree(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	default:
		return usage()
	}
}

func loadTraces(path string) ([]*trace.DomainTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	traces, err := trace.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return traces, nil
}

// filterDomain narrows traces to one domain when the flag is set.
func filterDomain(traces []*trace.DomainTrace, domain string, path string) ([]*trace.DomainTrace, error) {
	if domain == "" {
		return traces, nil
	}
	name, err := dnsname.Parse(domain)
	if err != nil {
		return nil, fmt.Errorf("-domain: %w", err)
	}
	var out []*trace.DomainTrace
	for _, dt := range traces {
		if dt.Domain == name {
			out = append(out, dt)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no trace for %s", path, name)
	}
	return out, nil
}

func runList(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usage()
	}
	traces, err := loadTraces(fs.Arg(0))
	if err != nil {
		return err
	}
	for _, dt := range traces {
		line := fmt.Sprintf("%s class=%s rounds=%d dur=%s spans=%d",
			dt.Domain, dt.Class, dt.Rounds, dt.Duration, len(dt.Spans))
		if dt.Err != "" {
			line += " error"
		}
		if dt.ErrTransient {
			line += " transient"
		}
		if dt.ClassChanged {
			line += " class-changed"
		}
		if len(dt.RetainedFor) > 0 {
			line += " retained=" + strings.Join(dt.RetainedFor, ",")
		}
		fmt.Fprintln(stdout, line)
	}
	return nil
}

func runTree(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tree", flag.ContinueOnError)
	fs.SetOutput(stderr)
	domain := fs.String("domain", "", "render only this domain's trace(s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usage()
	}
	traces, err := loadTraces(fs.Arg(0))
	if err != nil {
		return err
	}
	traces, err = filterDomain(traces, *domain, fs.Arg(0))
	if err != nil {
		return err
	}
	for i, dt := range traces {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := trace.RenderTree(stdout, dt); err != nil {
			return err
		}
	}
	return nil
}

func runDiff(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	domain := fs.String("domain", "", "diff this domain (required when a file holds several domains)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return usage()
	}
	pick := func(path string) (*trace.DomainTrace, error) {
		traces, err := loadTraces(path)
		if err != nil {
			return nil, err
		}
		traces, err = filterDomain(traces, *domain, path)
		if err != nil {
			return nil, err
		}
		if len(traces) != 1 {
			return nil, fmt.Errorf("%s: %d traces; pick one with -domain", path, len(traces))
		}
		return traces[0], nil
	}
	a, err := pick(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := pick(fs.Arg(1))
	if err != nil {
		return err
	}
	n, err := trace.Diff(stdout, a, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d difference(s)\n", a.Domain, n)
	return nil
}
