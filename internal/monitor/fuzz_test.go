package monitor

// FuzzReadAlerts throws arbitrary bytes at the strict alert-log reader
// the daemon recovers from, seeded from a valid log and its lines. The
// contract under fuzz: ReadAlerts never panics, and a log it accepts
// re-encodes line by line to bytes that read back to the same alerts —
// the second encoding is byte-identical to the first.

import (
	"bytes"
	"testing"
)

func FuzzReadAlerts(f *testing.F) {
	good := logLines(&testing.T{}, testAlert(0, 1, "a.gov.br."), testAlert(1, 1, "b.gov.br."), testAlert(2, 2, "c.gov.br."))
	f.Add(good)
	for _, line := range bytes.SplitAfter(good, []byte("\n")) {
		f.Add(line)
	}
	f.Add([]byte(`{"seq":0,"epoch":-1,"domain":"X.gov.","severity":"critical","class":"c","findings":[{"kind":"k","severity":"critical","detail":"\ud800"}]}` + "\n"))
	f.Add([]byte(`{"seq":0,"epoch":1,"domain":"a.gov.","severity":"info","class":"c","findings":[]}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		alerts, err := ReadAlerts(bytes.NewReader(data))
		if err != nil {
			return // a loud rejection is a correct outcome for bad input
		}
		encode := func(alerts []*Alert) []byte {
			var buf bytes.Buffer
			for _, a := range alerts {
				line, err := a.marshalLine()
				if err != nil {
					t.Fatalf("accepted alert %d does not encode: %v", a.Seq, err)
				}
				buf.Write(line)
			}
			return buf.Bytes()
		}
		first := encode(alerts)
		again, err := ReadAlerts(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded log does not read back: %v\n%s", err, first)
		}
		if len(again) != len(alerts) {
			t.Fatalf("read back %d alerts, want %d", len(again), len(alerts))
		}
		for i := range again {
			if !sameAlert(again[i], alerts[i]) {
				t.Fatalf("alert %d changed across a round trip: %+v, want %+v", i, again[i], alerts[i])
			}
		}
		if second := encode(again); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}
