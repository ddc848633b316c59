package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallWorld is the world every test here runs: small enough for a
// -race run, and a 10 s per-query timeout so a busy run queue cannot
// time an answered exchange out and move a golden (a simulated dead
// server costs no wall time whatever the timeout).
var smallWorld = []string{"-scale", "0.003", "-seed", "1", "-timeout", "10s"}

func runGovdns(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), err
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// dirDigest digests every file in dir: each file's name and contents
// digest, one line a file in name order, digested again.
func dirDigest(t *testing.T, dir string) (string, int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var list strings.Builder
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		list.WriteString(e.Name() + " " + digest(b) + "\n")
	}
	return digest([]byte(list.String())), len(entries)
}

// TestReportAndCSVs pins the whole report and every CSV export. The
// report is the same at any concurrency, so the serial run must match
// the same golden.
func TestReportAndCSVs(t *testing.T) {
	const (
		wantReport = "7b5fcdc45095125e94e069249a3136e9e118981a977bb5ccff4984df741cbd66"
		wantCSVs   = "8207ae2c1e34c9e6a7d298215fc31019b3ec0ee3f8bbe7844e1727e041b8d738"
	)
	dir := t.TempDir()
	out, err := runGovdns(t, append(smallWorld, "-csvdir", dir)...)
	if err != nil {
		t.Fatalf("govdns -csvdir: %v", err)
	}
	if got := digest([]byte(out)); got != wantReport {
		t.Errorf("report digest %s, want %s", got, wantReport)
	}
	if got, n := dirDigest(t, dir); got != wantCSVs || n != 15 {
		t.Errorf("CSV exports: %d files, digest %s; want 15, %s", n, got, wantCSVs)
	}

	out, err = runGovdns(t, append(smallWorld, "-concurrency", "1")...)
	if err != nil {
		t.Fatalf("govdns -concurrency 1: %v", err)
	}
	if got := digest([]byte(out)); got != wantReport {
		t.Errorf("serial report digest %s, want %s", got, wantReport)
	}
}

func TestExperiment(t *testing.T) {
	const wantTable2 = "c216fbbfc8274ff3d00243f5972133b5a7c8932278face4fe7a7196c154dcb46"
	out, err := runGovdns(t, append(smallWorld, "-experiment", "table2")...)
	if err != nil {
		t.Fatalf("govdns -experiment table2: %v", err)
	}
	if got := digest([]byte(out)); got != wantTable2 {
		t.Errorf("table2 digest %s, want %s", got, wantTable2)
	}
	if !strings.Contains(out, "§ IV-A — gov.cn provider shares") {
		t.Errorf("table2 lacks the § IV-A gov.cn shares:\n%s", out)
	}

	// Refused before the world is built, which at scale 1.0 takes ~20 s.
	out, err = runGovdns(t, "-scale", "1.0", "-experiment", "fig99")
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "fig99" (have funnel fig2 fig3 fig4`) {
		t.Errorf("unknown experiment: err %v, want one listing the ids", err)
	}
	if out != "" {
		t.Errorf("unknown experiment printed %q", out)
	}
}

func TestExpectations(t *testing.T) {
	const want = "1645ee7c907be54d875133edbfdb5ef687252e3ce4bafb24bb83a68ad38d56a3"
	out, err := runGovdns(t, "-expectations")
	if err != nil {
		t.Fatalf("govdns -expectations: %v", err)
	}
	if got := digest([]byte(out)); got != want {
		t.Errorf("expectations digest %s, want %s\n%s", got, want, out)
	}
}

func TestBadFlag(t *testing.T) {
	if _, err := runGovdns(t, "-no-such-flag"); err == nil {
		t.Error("an unknown flag was accepted")
	}
}
