package zone

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"govdns/internal/dnswire"
)

const sampleZoneFile = `
$ORIGIN gov.br.
$TTL 7200
@	3600	IN	SOA	ns1 hostmaster (
			2021040100 ; serial
			7200       ; refresh
			3600       ; retry
			1209600    ; expire
			300 )      ; minimum
@		IN	NS	ns1
@		IN	NS	ns2.gov.br.
ns1		IN	A	198.51.100.1
ns2		IN	A	198.51.100.2
www	300	IN	A	192.0.2.80
www	300	IN	AAAA	2001:db8::80
city		IN	NS	ns1.city
city		IN	NS	ns2.city.gov.br.
ns1.city	IN	A	203.0.113.1
ns2.city	IN	A	203.0.113.2
mail		IN	MX	10 mx1.gov.br.
@		IN	TXT	"v=spf1 -all"
alias		IN	CNAME	www
`

func TestParseFileBasics(t *testing.T) {
	z, err := ParseFile(strings.NewReader(sampleZoneFile), "gov.br.")
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if z.Origin() != "gov.br." {
		t.Errorf("Origin = %q", z.Origin())
	}
	soa, err := z.SOA()
	if err != nil {
		t.Fatalf("SOA: %v", err)
	}
	soaData, ok := soa.Data.(dnswire.SOAData)
	if !ok {
		t.Fatalf("SOA data type %T", soa.Data)
	}
	if soaData.Serial != 2021040100 || soaData.MName != "ns1.gov.br." {
		t.Errorf("SOA = %+v", soaData)
	}
	if got := len(z.Lookup("gov.br.", dnswire.TypeNS)); got != 2 {
		t.Errorf("apex NS count = %d, want 2", got)
	}
	// Relative vs absolute names must resolve identically.
	if got := len(z.Lookup("city.gov.br.", dnswire.TypeNS)); got != 2 {
		t.Errorf("city NS count = %d, want 2", got)
	}
	// Default TTL applies where no TTL is given.
	ns1 := z.Lookup("ns1.gov.br.", dnswire.TypeA)
	if len(ns1) != 1 || ns1[0].TTL != 7200 {
		t.Errorf("ns1 A = %+v, want TTL 7200", ns1)
	}
	// Explicit TTL wins.
	www := z.Lookup("www.gov.br.", dnswire.TypeA)
	if len(www) != 1 || www[0].TTL != 300 {
		t.Errorf("www A = %+v, want TTL 300", www)
	}
	if got := len(z.Lookup("www.gov.br.", dnswire.TypeAAAA)); got != 1 {
		t.Errorf("www AAAA count = %d", got)
	}
	mx := z.Lookup("mail.gov.br.", dnswire.TypeMX)
	if len(mx) != 1 {
		t.Fatalf("mail MX count = %d", len(mx))
	}
	if d := mx[0].Data.(dnswire.MXData); d.Preference != 10 || d.Exchange != "mx1.gov.br." {
		t.Errorf("MX = %+v", d)
	}
	txt := z.Lookup("gov.br.", dnswire.TypeTXT)
	if len(txt) != 1 || txt[0].Data.(dnswire.TXTData).Strings[0] != "v=spf1 -all" {
		t.Errorf("TXT = %+v", txt)
	}
	cname := z.Lookup("alias.gov.br.", dnswire.TypeCNAME)
	if len(cname) != 1 || cname[0].Data.(dnswire.CNAMEData).Target != "www.gov.br." {
		t.Errorf("CNAME = %+v", cname)
	}
}

// parseFileErrorCases are inputs ParseFile must reject.
var parseFileErrorCases = []struct {
	name, input string
}{
	{"unbalanced parens", "@ IN SOA a b ( 1 2 3 4 5"},
	{"unknown type", "@ IN WKS something"},
	{"bad A", "@ IN A not-an-ip"},
	{"bad AAAA", "@ IN AAAA 192.0.2.1"},
	{"missing type", "www IN"},
	{"empty", "; only a comment\n"},
	{"implicit owner first", "\tIN A 192.0.2.1"},
	{"bad origin", "$ORIGIN bad..name."},
	{"bad ttl directive", "$TTL abc"},
	{"inner TXT quote", `@ IN TXT a"b`},
}

func TestParseFileErrors(t *testing.T) {
	for _, tc := range parseFileErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseFile(strings.NewReader(tc.input), "example."); err == nil {
				t.Errorf("ParseFile(%q) succeeded, want error", tc.input)
			}
		})
	}
}

func TestParseFileErrParseSentinel(t *testing.T) {
	_, err := ParseFile(strings.NewReader("@ IN A nope"), "example.")
	if !errors.Is(err, ErrParse) {
		t.Errorf("error %v is not ErrParse", err)
	}
}

func TestWriteFileRoundTrip(t *testing.T) {
	orig, err := ParseFile(strings.NewReader(sampleZoneFile), "gov.br.")
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteFile(&buf, orig); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	reparsed, err := ParseFile(bytes.NewReader(buf.Bytes()), orig.Origin())
	if err != nil {
		t.Fatalf("re-ParseFile: %v\nserialized:\n%s", err, buf.String())
	}
	origRecords, newRecords := orig.Records(), reparsed.Records()
	if len(origRecords) != len(newRecords) {
		t.Fatalf("round trip changed record count: %d -> %d\n%s",
			len(origRecords), len(newRecords), buf.String())
	}
	for i := range origRecords {
		if !origRecords[i].Equal(newRecords[i]) {
			t.Errorf("record %d: %v != %v", i, origRecords[i], newRecords[i])
		}
	}
}

const quotedSemicolonZoneFile = "$ORIGIN example.\n@ IN TXT \"has ; semicolon\"\n"

func TestParseFileQuotedSemicolon(t *testing.T) {
	input := quotedSemicolonZoneFile
	z, err := ParseFile(strings.NewReader(input), "example.")
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	txt := z.Lookup("example.", dnswire.TypeTXT)
	if len(txt) != 1 || txt[0].Data.(dnswire.TXTData).Strings[0] != "has ; semicolon" {
		t.Errorf("TXT = %+v", txt)
	}
}
