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

	"govdns/internal/measure"
)

// TestResumeRefusesDifferentWorld: the scan key covers backend, seed and
// scale even when -domains is set, so -resume against an archive from a
// different world is refused instead of silently extending it.
func TestResumeRefusesDifferentWorld(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "scan.jsonl")
	cfg := measure.StreamConfig{
		CheckpointPath: filepath.Join(dir, "scan.ckpt"),
		ScanKey:        scanKey(false, 42, 0.02, "list.txt", ""),
	}
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := measure.NewStreamWriter(f, cfg).Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	sw, _, err := measure.ResumeStream(outPath, cfg)
	if err != nil {
		t.Fatalf("resume with the same flags: %v", err)
	}
	_ = sw.Close()

	for name, key := range map[string]string{
		"seed":  scanKey(false, 7, 0.02, "list.txt", ""),
		"scale": scanKey(false, 42, 0.1, "list.txt", ""),
		"real":  scanKey(true, 42, 0.02, "list.txt", ""),
	} {
		other := cfg
		other.ScanKey = key
		if sw, _, err := measure.ResumeStream(outPath, other); err == nil {
			_ = sw.Close()
			t.Errorf("different %s: resume extended an archive keyed %q under key %q", name, cfg.ScanKey, key)
		} else if !strings.Contains(err.Error(), "refusing to extend") {
			t.Errorf("different %s: refused for the wrong reason: %v", name, err)
		}
	}
}

// TestSimScan pins a simulated scan's JSONL and the canonical digest it
// prints, then reads the output back with -summarize, which must print
// the scan's own summary line. The 10 s per-query timeout keeps a busy
// -race run queue from timing an answered exchange out and moving the
// golden; a simulated dead server costs no wall time whatever it is.
func TestSimScan(t *testing.T) {
	const (
		wantJSONL   = "f6bb191ecc9e88b6d08920849acbcd57d3d26efc1daba47c7caa9d0a19cbd6b9"
		wantDigest  = "streamed 713 results (digest 900793baf3f30cb0ce9aa4192765993d9d2cb0f7dd91337738708c2f15452075)\n"
		wantSummary = "summary: 713 scanned; parent 701 (98.3%); data 672 (94.2%); responsive 646 (90.6%); partial-lame 119 (17.7%); full-lame 26 (3.9%)\n"
	)
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-sim", "-scale", "0.003", "-seed", "1", "-timeout", "10s"}, &stdout, &stderr); err != nil {
		t.Fatalf("govscan -sim: %v", err)
	}
	if sum := sha256.Sum256(stdout.Bytes()); hex.EncodeToString(sum[:]) != wantJSONL {
		t.Errorf("JSONL digest %x, want %s", sum, wantJSONL)
	}
	if !strings.Contains(stderr.String(), wantDigest) || !strings.HasSuffix(stderr.String(), wantSummary) {
		t.Errorf("stderr lacks %q or does not end with %q:\n%s", wantDigest, wantSummary, stderr.String())
	}

	path := filepath.Join(t.TempDir(), "scan.jsonl")
	if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if err := run(context.Background(), []string{"-summarize", path}, &stdout, &stderr); err != nil {
		t.Fatalf("govscan -summarize: %v", err)
	}
	if stdout.Len() != 0 || stderr.String() != wantSummary {
		t.Errorf("-summarize printed %q to stdout and %q to stderr, want only %q", stdout.String(), stderr.String(), wantSummary)
	}
}

func TestFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"checkpoint without out":    {"-checkpoint", "x.ckpt"},
		"resume without checkpoint": {"-resume"},
		"unknown flag":              {"-no-such-flag"},
		"unknown chaos profile":     {"-chaos", "bogus", "-scale", "0.001"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out, &out); err == nil {
			t.Errorf("%s: run(%q) succeeded", name, args)
		}
	}
}
