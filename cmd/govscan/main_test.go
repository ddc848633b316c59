package main

import (
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
