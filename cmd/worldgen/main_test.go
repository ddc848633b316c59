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

func runWorldgen(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), err
}

// TestExport pins every file worldgen writes, including the US parent
// zone, which is the gov TLD zone itself rather than a zone below it.
func TestExport(t *testing.T) {
	dir := t.TempDir()
	out, err := runWorldgen(t, "-out", dir, "-scale", "0.003", "-seed", "1", "-zones", "gov.br,gov")
	if err != nil {
		t.Fatalf("worldgen: %v", err)
	}
	want := map[string]string{
		"pdns.jsonl":    "9781bd08ecd4bc0c1fb558833a3660dd0caed9d322aa64991b8882f3ece64b09",
		"geoip-asn.csv": "eb5aad2eb100e23dafd0bce45c07da7ceeb0390cf34ea1bc458710fadc547055",
		"querylist.txt": "8a56f4f29aa39b9ea31f58d0d69f5da7e81f1144757fcf4cf1ddef7b2e477e5b",
		"gov.br.zone":   "1616fd3db947b3292d96aff651c1390ffe9a7a21f775ac3f2abc52ac16fec950",
		"gov.zone":      "a47a01adeb9953cb0aeb26cbfd0b9235d04f3f61d974ef23e941c4fbd068684f",
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("wrote %d files, want %d", len(entries), len(want))
	}
	for name, digest := range want {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != digest {
			t.Errorf("%s digest %x, want %s", name, sum, digest)
		}
	}
	wantOut := `wrote OUT/pdns.jsonl (1848 record sets)
wrote OUT/geoip-asn.csv (1349 ranges)
wrote OUT/querylist.txt (713 names)
wrote OUT/gov.br.zone (179 records)
wrote OUT/gov.zone (20 records)
`
	if got := strings.ReplaceAll(out, dir, "OUT"); got != wantOut {
		t.Errorf("stdout:\n%s\nwant:\n%s", got, wantOut)
	}
}

func TestUnknownSuffix(t *testing.T) {
	_, err := runWorldgen(t, "-out", t.TempDir(), "-scale", "0.003", "-seed", "1", "-zones", "gov.example")
	if err == nil || !strings.Contains(err.Error(), "no government parent zone gov.example.") {
		t.Errorf("unknown suffix: err %v", err)
	}
}
