package measure

// FuzzReadJSONL throws arbitrary bytes at the scan-result reader, seeded
// from the golden archive and its lines. The contract under fuzz:
// ReadJSONL never panics, and anything it accepts re-encodes through
// WriteJSONL to bytes that read back to the same results — the second
// encoding is byte-identical to the first and the digest does not move.
// With TestJSONLGolden it pins the archive shape the scanner's probe
// copy-out must keep.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func FuzzReadJSONL(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "results.golden.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		f.Add(line)
	}
	f.Add([]byte(`{"domain":"x.gov.br.","parent_ns":[],"addrs":{"NS1.x.gov.br.":["10.0.0.1","9.0.0.2"],"ns1.x.gov.br.":null},"servers":[{"host":"ns1.x.gov.br.","addr":"","ok":true,"ns":[]}],"rounds":1,"faults":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		results, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return // a loud rejection is a correct outcome for bad input
		}
		var first bytes.Buffer
		if err := WriteJSONL(&first, results); err != nil {
			t.Fatalf("accepted results do not encode: %v", err)
		}
		again, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded results do not read back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteJSONL(&second, again); err != nil {
			t.Fatalf("read-back results do not encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first.Bytes(), second.Bytes())
		}
		if len(again) != len(results) || DigestHex(again) != DigestHex(results) {
			t.Fatalf("read-back results differ: %d results, digest %s; want %d, %s",
				len(again), DigestHex(again), len(results), DigestHex(results))
		}
	})
}
