package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRunTwoEpochs runs the daemon for two back-to-back epochs over an
// unchanged world: each epoch's result file is the world's scan, byte
// for byte, both report one canonical digest, and nothing is alerted.
// The 10 s per-query timeout keeps a busy -race run queue from timing
// an answered exchange out and moving the golden.
func TestRunTwoEpochs(t *testing.T) {
	const (
		wantEpoch  = "f6bb191ecc9e88b6d08920849acbcd57d3d26efc1daba47c7caa9d0a19cbd6b9"
		wantDigest = "900793baf3f30cb0ce9aa4192765993d9d2cb0f7dd91337738708c2f15452075"
	)
	state := t.TempDir()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"run", "-state", state, "-epochs", "2", "-interval", "0",
		"-scale", "0.003", "-seed", "1", "-timeout", "10s"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("govmon run: %v\n%s", err, stderr.String())
	}
	for _, name := range []string{"epoch-0.jsonl", "epoch-1.jsonl"} {
		b, err := os.ReadFile(filepath.Join(state, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(b); got != wantEpoch {
			t.Errorf("%s digest %s, want %s", name, got, wantEpoch)
		}
	}
	digests := regexp.MustCompile(`(?m)^epoch \d: 713 domains .*\(digest ([0-9a-f]+)\)$`).FindAllStringSubmatch(stderr.String(), -1)
	if len(digests) != 2 || digests[0][1] != wantDigest || digests[1][1] != wantDigest {
		t.Errorf("epoch lines want two with digest %s:\n%s", wantDigest, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("an unchanged world alerted:\n%s", stdout.String())
	}
}

// TestDemo: the injected hijack raises exactly one alert, critical, for
// city.gov.br., printed with its retained span tree. The digest covers
// the alert text; the tree's durations are wall time.
func TestDemo(t *testing.T) {
	const want = "e40f506b326b1ca178c0bd0cdeb825280d4fdc52adb11bc4f659c2f5df2f4cee"
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"demo"}, &stdout, &stdout); err != nil {
		t.Fatalf("govmon demo: %v", err)
	}
	out := stdout.String()
	alerts, tree, ok := strings.Cut(out, "\ncity.gov.br. class=")
	if !ok {
		t.Fatalf("no span tree for city.gov.br.:\n%s", out)
	}
	if got := digest([]byte(alerts + "\n")); got != want {
		t.Errorf("alert text digest %s, want %s:\n%s", got, want, alerts)
	}
	if n := strings.Count(out, "[critical]"); n != 1 || !strings.Contains(alerts, "#0 epoch 1 [critical] city.gov.br.") {
		t.Errorf("want exactly one critical alert, for city.gov.br.:\n%s", alerts)
	}
	if !strings.Contains(tree, "└─ domain city.gov.br. ok") {
		t.Errorf("span tree has no domain root:\n%s", tree)
	}
}

func TestUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no subcommand":       {},
		"unknown subcommand":  {"frobnicate"},
		"run without -state":  {"run", "-epochs", "1"},
		"tail without -state": {"tail"},
		"demo with a flag":    {"demo", "-x"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out, &out); err == nil {
			t.Errorf("%s: run(%q) succeeded", name, args)
		}
	}
}

// TestTailEmpty: tail over a state directory with no alert log yet.
func TestTailEmpty(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"tail", "-state", t.TempDir()}, &stdout, &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != "no alerts\n" {
		t.Errorf("tail = %q, want no alerts", stdout.String())
	}
}
