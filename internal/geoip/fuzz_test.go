package geoip

// FuzzReadCSV throws arbitrary bytes at the ASN-database importer,
// seeded from an export of a generated topology and its rows. The
// contract under fuzz: ReadCSV never panics, and a database it accepts
// exports through WriteCSV to bytes that import to the same database —
// the second export is byte-identical to the first.

import (
	"bytes"
	"reflect"
	"testing"
)

func FuzzReadCSV(f *testing.F) {
	db, _, _ := buildTestDB(&testing.T{})
	var export bytes.Buffer
	if err := db.WriteCSV(&export); err != nil {
		f.Fatal(err)
	}
	f.Add(export.Bytes())
	for _, line := range bytes.SplitAfter(export.Bytes(), []byte("\n")) {
		f.Add(line)
	}
	f.Add([]byte("10.0.0.0,10.0.0.255,64500,\"Org, with \\\"quotes\\\"\"\n\n 10.0.1.0,10.0.1.9,007,\"\\u00e9\" \n"))
	f.Add([]byte("::1,::2,1,\"v6\"\n"))
	f.Add([]byte("10.0.0.9,10.0.0.1,1,\"backwards\"\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return // a loud rejection is a correct outcome for bad input
		}
		var first bytes.Buffer
		if err := db.WriteCSV(&first); err != nil {
			t.Fatalf("accepted database does not export: %v", err)
		}
		again, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("exported database does not import: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(again, db) {
			t.Fatalf("re-imported database differs:\n%+v\nwant\n%+v", again, db)
		}
		var second bytes.Buffer
		if err := again.WriteCSV(&second); err != nil {
			t.Fatalf("re-imported database does not export: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first.Bytes(), second.Bytes())
		}
	})
}
