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

	"govdns/internal/worldgen"
)

// writeDump writes a small world's passive-DNS history, as worldgen
// writes pdns.jsonl, and returns its path.
func writeDump(t *testing.T) string {
	t.Helper()
	w := worldgen.Generate(worldgen.Config{Seed: 1, Scale: 0.003})
	path := filepath.Join(t.TempDir(), "pdns.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PDNS.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func runPdnsq(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), err
}

func TestCounts(t *testing.T) {
	const want = "39105636e5d646f857139215f5209a989388d76f5ac332b6b13f86cea3bdc69f"
	out, err := runPdnsq(t, "-db", writeDump(t), "-search", "*.gov.br", "-counts")
	if err != nil {
		t.Fatalf("pdnsq -counts: %v", err)
	}
	if sum := sha256.Sum256([]byte(out)); hex.EncodeToString(sum[:]) != want {
		t.Errorf("output digest %x, want %s:\n%s", sum, want, out)
	}
}

func TestErrors(t *testing.T) {
	db := writeDump(t)
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"no -db":       {[]string{"-search", "*.gov.br"}, "-db and -search are required"},
		"missing file": {[]string{"-db", filepath.Join(t.TempDir(), "nope.jsonl"), "-search", "x.gov.br"}, "no such file"},
		"bad type":     {[]string{"-db", db, "-search", "*.gov.br", "-type", "BOGUS"}, `unknown record type "BOGUS"`},
		"bad name":     {[]string{"-db", db, "-search", "*...gov"}, "bad search suffix"},
	} {
		if _, err := runPdnsq(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", name, err, tc.want)
		}
	}
}
