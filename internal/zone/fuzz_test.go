package zone

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzZoneFileRoundTrip feeds ParseFile arbitrary master-file text, the
// way cmd/dnsserver feeds it an operator's file: it must never panic, and
// any zone it accepts must go through WriteFile and parse back to records
// Equal to the originals (TestWriteFileRoundTrip's check, for any input).
func FuzzZoneFileRoundTrip(f *testing.F) {
	f.Add(sampleZoneFile)
	f.Add(quotedSemicolonZoneFile)
	f.Add("$ORIGIN example.\n@ IN TXT \"\" spaced\t\"a b\"\n*.w 0 CH MX 010 @\n")
	for _, tc := range parseFileErrorCases {
		f.Add(tc.input)
	}
	f.Fuzz(func(t *testing.T, input string) {
		z, err := ParseFile(strings.NewReader(input), "example.")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFile(&buf, z); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		back, err := ParseFile(bytes.NewReader(buf.Bytes()), z.Origin())
		if err != nil {
			t.Fatalf("re-ParseFile: %v\nserialized:\n%s", err, buf.String())
		}
		orig, got := z.Records(), back.Records()
		if len(orig) != len(got) {
			t.Fatalf("round trip changed record count: %d -> %d\nserialized:\n%s", len(orig), len(got), buf.String())
		}
		for i := range orig {
			if !orig[i].Equal(got[i]) {
				t.Errorf("record %d: %v != %v\nserialized:\n%s", i, orig[i], got[i], buf.String())
			}
		}
	})
}
