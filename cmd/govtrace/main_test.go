package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/trace"
)

// writeTraces builds a two-domain JSONL fixture and returns its path.
func writeTraces(t *testing.T) string {
	t.Helper()
	mk := func(domain string, errText string) *trace.DomainTrace {
		return &trace.DomainTrace{
			Domain:   dnsname.Name(domain),
			Start:    time.Unix(1700000000, 0).UTC(),
			Duration: 5 * time.Millisecond,
			Class:    "healthy",
			Rounds:   1,
			Err:      errText,
			Spans: []trace.Span{
				{ID: 0, Parent: trace.NoSpan, Kind: trace.KindDomain, Name: domain, Duration: 5 * time.Millisecond, Outcome: "ok"},
				{ID: 1, Parent: 0, Kind: trace.KindRound, Name: "round 1", Duration: 4 * time.Millisecond, Outcome: "ok"},
			},
		}
	}
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteJSONL(f, []*trace.DomainTrace{
		mk("a.gov.br.", ""), mk("b.gov.br.", "boom"),
	}); err != nil {
		t.Fatal(err)
	}
	return path
}

// runGovtrace runs the command and returns what it printed.
func runGovtrace(args ...string) (string, error) {
	var stdout bytes.Buffer
	err := run(context.Background(), args, &stdout, io.Discard)
	return stdout.String(), err
}

func TestListTreeDiff(t *testing.T) {
	path := writeTraces(t)

	out, err := runGovtrace("list", path)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if !strings.Contains(out, "a.gov.br. class=healthy rounds=1") ||
		!strings.Contains(out, "b.gov.br.") || !strings.Contains(out, "error") {
		t.Errorf("list output missing expected lines:\n%s", out)
	}

	out, err = runGovtrace("tree", "-domain", "a.gov.br.", path)
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	if !strings.Contains(out, "└─ domain a.gov.br. ok") || strings.Contains(out, "b.gov.br.") {
		t.Errorf("tree output wrong:\n%s", out)
	}

	out, err = runGovtrace("diff", "-domain", "a.gov.br.", path, path)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if !strings.Contains(out, "a.gov.br.: 0 difference(s)") {
		t.Errorf("self-diff should report 0 differences:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	path := writeTraces(t)
	garbage := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(garbage, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"no command":          {},
		"unknown command":     {"frobnicate", path},
		"missing file":        {"list", filepath.Join(t.TempDir(), "nope.jsonl")},
		"garbage file":        {"list", garbage},
		"unknown domain":      {"tree", "-domain", "zz.gov.br.", path},
		"unparseable domain":  {"tree", "-domain", "..bad..", path},
		"diff needs -domain":  {"diff", path, path},
		"diff wrong arity":    {"diff", path},
		"tree too many files": {"tree", path, path},
	}
	for name, args := range cases {
		if _, err := runGovtrace(args...); err == nil {
			t.Errorf("%s: run(%q) succeeded, want error", name, args)
		}
	}
}
