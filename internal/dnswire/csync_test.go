package dnswire

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestCSYNCRoundTrip(t *testing.T) {
	data := CSYNCData{
		Serial: 2021041501,
		Flags:  CSYNCImmediate | 1<<1, // and soaminimum
		Types:  []Type{TypeNS, TypeA, TypeAAAA},
	}
	msg := NewQuery(1, "child.gov.br.", TypeCSYNC)
	resp := NewResponse(msg)
	resp.Answers = []RR{{Name: "child.gov.br.", Class: ClassIN, TTL: 60, Data: data}}

	wire, err := Encode(resp)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !got.Answers[0].Equal(resp.Answers[0]) {
		t.Errorf("round trip: got %v, want %v", got.Answers[0], resp.Answers[0])
	}
	gotData := got.Answers[0].Data.(CSYNCData)
	if gotData.Flags&CSYNCImmediate == 0 {
		t.Error("immediate flag lost")
	}
	if !slices.Contains(gotData.Types, TypeNS) || slices.Contains(gotData.Types, TypeTXT) {
		t.Errorf("Types wrong: %v", gotData.Types)
	}
}

func TestCSYNCEmptyTypeSet(t *testing.T) {
	data := CSYNCData{Serial: 7, Flags: 0}
	msg := &Message{Answers: []RR{{Name: "x.example.", Class: ClassIN, Data: data}}}
	wire, err := Encode(msg)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	gotData := got.Answers[0].Data.(CSYNCData)
	if gotData.Serial != 7 || len(gotData.Types) != 0 {
		t.Errorf("got %+v", gotData)
	}
}

func TestCSYNCHighTypeWindow(t *testing.T) {
	// Type 257 (CAA) lives in bitmap window 1.
	data := CSYNCData{Serial: 1, Types: []Type{TypeNS, Type(257)}}
	msg := &Message{Answers: []RR{{Name: "x.example.", Class: ClassIN, Data: data}}}
	wire, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	gotData := got.Answers[0].Data.(CSYNCData)
	if len(gotData.Types) != 2 || gotData.Types[0] != TypeNS || gotData.Types[1] != Type(257) {
		t.Errorf("Types = %v", gotData.Types)
	}
}

func TestCSYNCQuickRoundTrip(t *testing.T) {
	f := func(serial uint32, flags uint16, raw []uint16) bool {
		seen := make(map[Type]bool)
		var types []Type
		for _, r := range raw {
			typ := Type(r % 300)
			if !seen[typ] {
				seen[typ] = true
				types = append(types, typ)
			}
		}
		data := CSYNCData{Serial: serial, Flags: flags, Types: types}
		msg := &Message{Answers: []RR{{Name: "x.example.", Class: ClassIN, Data: data}}}
		wire, err := Encode(msg)
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		gotData, ok := got.Answers[0].Data.(CSYNCData)
		if !ok || gotData.Serial != serial || gotData.Flags != flags {
			return false
		}
		if len(gotData.Types) != len(types) {
			return false
		}
		for _, typ := range types {
			if !slices.Contains(gotData.Types, typ) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCSYNCTypeString(t *testing.T) {
	if TypeCSYNC.String() != "CSYNC" {
		t.Errorf("String = %q", TypeCSYNC.String())
	}
	typ, ok := ParseType("CSYNC")
	if !ok || typ != TypeCSYNC {
		t.Errorf("ParseType = %v, %v", typ, ok)
	}
}
