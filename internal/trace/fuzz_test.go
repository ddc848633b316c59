package trace

// FuzzReadJSONL throws arbitrary bytes at the trace reader govtrace
// loads flight-recorder files with, seeded from the golden trace. The
// contract under fuzz: ReadJSONL never panics, and traces it accepts
// re-encode through WriteJSONL to bytes that read back to the same
// traces — the second encoding is byte-identical to the first.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func FuzzReadJSONL(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "trace.golden.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(append(append([]byte{}, golden...), golden...))
	f.Add([]byte(`{"domain":"X.gov.","start":"2026-01-02T03:04:05.5+14:00","dur_ns":1,"rounds":1,"spans":[{"id":0,"parent":-1,"kind":"domain","start_ns":0,"dur_ns":-1,"attrs":[{"k":"b","t":"b","i":7},{"k":"d","t":"d","i":-3}]}]}`))
	f.Add([]byte(`{"domain":"x.gov.","spans":[{"id":0,"parent":0,"kind":"domain"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		traces, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return // a loud rejection is a correct outcome for bad input
		}
		var first bytes.Buffer
		if err := WriteJSONL(&first, traces); err != nil {
			t.Fatalf("accepted traces do not encode: %v", err)
		}
		again, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded traces do not read back: %v\n%s", err, first.Bytes())
		}
		if len(again) != len(traces) {
			t.Fatalf("read back %d traces, want %d", len(again), len(traces))
		}
		var second bytes.Buffer
		if err := WriteJSONL(&second, again); err != nil {
			t.Fatalf("read-back traces do not encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first.Bytes(), second.Bytes())
		}
	})
}
