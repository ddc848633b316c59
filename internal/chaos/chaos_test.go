package chaos

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"govdns/internal/deadline"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

var (
	srvA = netip.MustParseAddr("192.0.2.1")
	srvB = netip.MustParseAddr("192.0.2.2")
)

// answering is a minimal inner transport: it answers every decodable
// query authoritatively with one A record for the queried name.
type answering struct{}

func (answering) Exchange(_ context.Context, _ netip.Addr, query []byte) ([]byte, error) {
	q, err := dnswire.Decode(query)
	if err != nil {
		return nil, err
	}
	resp := dnswire.NewResponse(q)
	resp.Header.Authoritative = true
	resp.Answers = []dnswire.RR{{
		Name:  q.Questions[0].Name,
		Class: dnswire.ClassIN,
		TTL:   60,
		Data:  dnswire.AData{Addr: netip.MustParseAddr("203.0.113.7")},
	}}
	return dnswire.Encode(resp)
}

func mustQuery(t *testing.T, id uint16, name dnsname.Name) []byte {
	t.Helper()
	wire, err := dnswire.Encode(dnswire.NewQuery(id, name, dnswire.TypeNS))
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func shortCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	t.Cleanup(cancel)
	return ctx
}

func TestWindowedRuleFiresPerKeyThenStops(t *testing.T) {
	tr := Wrap(answering{}, 1, Transient(CorruptQID, 2))
	ctx := context.Background()
	q := mustQuery(t, 7, "x.gov.br.")

	for i := 0; i < 2; i++ {
		resp, err := tr.Exchange(ctx, srvA, q)
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if m, err := dnswire.Decode(resp); err == nil && m.Header.ID == 7 {
			t.Fatalf("exchange %d inside window delivered a clean QID", i)
		}
	}
	// Window exhausted for this key: clean delivery.
	resp, err := tr.Exchange(ctx, srvA, q)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := dnswire.Decode(resp); err != nil || m.Header.ID != 7 {
		t.Fatalf("post-window exchange still corrupted: %v %v", m, err)
	}
	// A different key has its own window.
	resp, err = tr.Exchange(ctx, srvA, mustQuery(t, 9, "y.gov.br."))
	if err != nil {
		t.Fatal(err)
	}
	if m, err := dnswire.Decode(resp); err == nil && m.Header.ID == 9 {
		t.Fatal("fresh key skipped its fault window")
	}
	if got := tr.Stats().Injected[CorruptQID]; got != 3 {
		t.Errorf("injected qid faults = %d, want 3", got)
	}
}

func TestDropBlocksUntilDeadline(t *testing.T) {
	tr := Wrap(answering{}, 1, Transient(Drop, 1))
	_, err := tr.Exchange(shortCtx(t), srvA, mustQuery(t, 1, "x.gov.br."))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// Second exchange for the same key is past the window.
	if _, err := tr.Exchange(shortCtx(t), srvA, mustQuery(t, 2, "x.gov.br.")); err != nil {
		t.Fatalf("post-window exchange: %v", err)
	}
}

// TestUnansweredAttemptEndsAtOnce: under an attempt context whose own
// deadline binds, a drop, a flap and a delay past the deadline end the
// attempt at once (deadline.Expire) with the error a wait would give.
// A delay short of the deadline is delivered, and a parent's deadline
// is waited out. The deadlines are an hour out; the watchdog cancels the
// live parent if an exchange waits instead.
func TestUnansweredAttemptEndsAtOnce(t *testing.T) {
	cases := []struct {
		name    string
		rule    Rule
		parent  func(t *testing.T, live context.Context) context.Context
		expired bool
		err     string // "" for a delivered answer
	}{
		{name: "drop", rule: Transient(Drop, 1), expired: true,
			err: "chaos: injected fault: drop: context deadline exceeded"},
		{name: "flap", rule: FlapOutage(0, 1), expired: true,
			err: "chaos: injected fault: flap: context deadline exceeded"},
		{name: "delay past the deadline", rule: DelaySpike(2*time.Hour, 1), expired: true,
			err: "chaos: injected fault: delay: context deadline exceeded"},
		{name: "delay short of the deadline", rule: DelaySpike(time.Millisecond, 1)},
		{name: "drop under a parent's deadline", rule: Transient(Drop, 1),
			parent: func(t *testing.T, live context.Context) context.Context {
				ctx, cancel := context.WithTimeout(live, 30*time.Millisecond)
				t.Cleanup(cancel)
				return ctx
			},
			err: "chaos: injected fault: drop: context deadline exceeded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live, cancel := context.WithCancel(context.Background())
			defer cancel()
			watchdog := time.AfterFunc(30*time.Second, cancel)
			defer watchdog.Stop()
			parent := context.Context(live)
			if tc.parent != nil {
				parent = tc.parent(t, live)
			}
			attempt := deadline.New(parent, time.Hour)
			defer attempt.Release()
			tr := Wrap(answering{}, 1, tc.rule)
			_, err := tr.Exchange(attempt, srvA, mustQuery(t, 1, "x.gov.br."))
			if live.Err() != nil {
				t.Fatalf("the watchdog ended the exchange: it waited for an hour-long deadline (err %v)", err)
			}
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("err = %v, want the delayed answer", err)
			case tc.err != "" && (err == nil || err.Error() != tc.err):
				t.Fatalf("err = %v, want %q", err, tc.err)
			}
			if got := attempt.Expired(); got != tc.expired {
				t.Errorf("Expired = %v, want %v", got, tc.expired)
			}
		})
	}
}

func TestFlapWindowIndexesServerNotKey(t *testing.T) {
	// Server dead for its exchanges [1, 3), regardless of question.
	tr := Wrap(answering{}, 1, FlapOutage(1, 2))
	ctx := context.Background()
	if _, err := tr.Exchange(ctx, srvA, mustQuery(t, 1, "a.gov.br.")); err != nil {
		t.Fatalf("exchange 0 (healthy): %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := tr.Exchange(shortCtx(t), srvA, mustQuery(t, 2, "b.gov.br.")); !errors.Is(err, ErrInjected) {
			t.Fatalf("exchange %d inside outage: err = %v, want ErrInjected", 1+i, err)
		}
	}
	if _, err := tr.Exchange(ctx, srvA, mustQuery(t, 3, "c.gov.br.")); err != nil {
		t.Fatalf("exchange 3 (recovered): %v", err)
	}
	// Another server is unaffected by this one's counter.
	if _, err := tr.Exchange(ctx, srvB, mustQuery(t, 4, "b.gov.br.")); err != nil {
		t.Fatalf("other server during outage: %v", err)
	}
}

func TestDuplicateReplaysPreviousResponse(t *testing.T) {
	tr := Wrap(answering{}, 1, Rule{Class: Duplicate, First: 1})
	ctx := context.Background()
	first, err := tr.Exchange(ctx, srvA, mustQuery(t, 11, "a.gov.br."))
	if err != nil {
		t.Fatal(err)
	}
	stale, err := tr.Exchange(ctx, srvA, mustQuery(t, 12, "a.gov.br."))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, stale) {
		t.Error("duplicate fault did not replay the previous response")
	}
}

func TestDuplicateWithoutHistoryReflectsQuery(t *testing.T) {
	tr := Wrap(answering{}, 1, Transient(Duplicate, 1))
	q := mustQuery(t, 13, "a.gov.br.")
	resp, err := tr.Exchange(context.Background(), srvA, q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, q) {
		t.Error("first-contact duplicate should reflect the query bytes")
	}
	if m, err := dnswire.Decode(resp); err == nil && m.Header.Response {
		t.Error("reflected query has QR set; it would pass validation")
	}
}

func TestPersistentDrawIsContentKeyed(t *testing.T) {
	// Two transports with the same seed must make identical decisions;
	// the decision must not depend on how often the key was exchanged.
	mk := func() *Transport { return Wrap(answering{}, 42, Persistent(FlipRCode, 0.5)) }
	t1, t2 := mk(), mk()
	ctx := context.Background()
	names := []dnsname.Name{"a.gov.br.", "b.gov.br.", "c.gov.br.", "d.gov.br.", "e.gov.br.", "f.gov.br."}
	outcome := func(tr *Transport, n dnsname.Name) bool {
		resp, err := tr.Exchange(ctx, srvA, mustQuery(t, 5, n))
		if err != nil {
			t.Fatal(err)
		}
		m, err := dnswire.Decode(resp)
		if err != nil {
			t.Fatal(err)
		}
		return m.Header.RCode == dnswire.RCodeServFail
	}
	flipped := 0
	for _, n := range names {
		o1 := outcome(t1, n)
		for i := 0; i < 3; i++ { // repeats of the same key: same decision
			if outcome(t1, n) != o1 {
				t.Fatalf("%s: persistent decision changed across exchanges", n)
			}
		}
		if outcome(t2, n) != o1 {
			t.Fatalf("%s: same seed, different decision across transports", n)
		}
		if o1 {
			flipped++
		}
	}
	if flipped == 0 || flipped == len(names) {
		t.Logf("note: all-or-nothing draw (%d/%d) — legal but suspicious", flipped, len(names))
	}
}

func TestMutatorsAlwaysDetectable(t *testing.T) {
	q := dnswire.NewQuery(21, "probe.gov.br.", dnswire.TypeNS)
	resp := dnswire.NewResponse(q)
	resp.Header.Authoritative = true
	resp.Answers = []dnswire.RR{{Name: "probe.gov.br.", Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.NSData{Host: "ns1.probe.gov.br."}}}
	wire, err := dnswire.Encode(resp)
	if err != nil {
		t.Fatal(err)
	}

	// detectable reports whether a validating client would reject or
	// flag the mutated image against query q.
	detectable := func(mut []byte) bool {
		m, err := dnswire.Decode(mut)
		if err != nil {
			return true
		}
		if m.Header.ID != q.Header.ID || !m.Header.Response || m.Header.Truncated {
			return true
		}
		if m.Header.RCode != dnswire.RCodeNoError {
			return true
		}
		if len(m.Questions) > 0 {
			got, want := m.Questions[0], q.Questions[0]
			if got.Name != want.Name || got.Type != want.Type || got.Class != want.Class {
				return true
			}
		}
		return false
	}

	if !detectable(CorruptQIDWireInPlace(bytes.Clone(wire))) {
		t.Error("CorruptQID produced an acceptable response")
	}
	if !detectable(TruncateWire(wire)) {
		t.Error("TruncateWire produced an acceptable response")
	}
	if !detectable(MismatchQuestionWire(wire)) {
		t.Error("MismatchQuestion produced an acceptable response")
	}
	if !detectable(FlipRCodeWireInPlace(bytes.Clone(wire), dnswire.RCodeServFail)) {
		t.Error("FlipRCode produced an acceptable response")
	}
	for h := uint64(0); h < 64; h++ {
		if !detectable(MangleWireInPlace(h, bytes.Clone(wire))) {
			t.Errorf("MangleWireInPlace(h=%d) produced an acceptable response", h)
		}
	}
	// The re-encoding mutators never touch their input.
	orig := append([]byte(nil), wire...)
	_ = TruncateWire(wire)
	_ = MismatchQuestionWire(wire)
	if !bytes.Equal(orig, wire) {
		t.Error("a mutator modified its input slice")
	}
}

func TestTruncateWireKeepsQuestionDropsRecords(t *testing.T) {
	q := dnswire.NewQuery(31, "x.gov.br.", dnswire.TypeNS)
	resp := dnswire.NewResponse(q)
	resp.Answers = []dnswire.RR{{Name: "x.gov.br.", Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.NSData{Host: "ns1.x.gov.br."}}}
	wire, err := dnswire.Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnswire.Decode(TruncateWire(wire))
	if err != nil {
		t.Fatalf("truncated image must stay decodable: %v", err)
	}
	if !m.Header.Truncated {
		t.Error("TC bit not set")
	}
	if len(m.Answers)+len(m.Authority)+len(m.Additional) != 0 {
		t.Error("record sections survived truncation")
	}
	if len(m.Questions) != 1 || m.Questions[0].Name != "x.gov.br." {
		t.Errorf("question lost: %+v", m.Questions)
	}
}

func TestParseProfile(t *testing.T) {
	cases := []struct {
		spec    string
		classes []Class
		wantErr bool
	}{
		{spec: ""},
		{spec: "off"},
		{spec: "transient", classes: []Class{Drop, Delay, Truncate, FlipRCode, Duplicate, CorruptQID, MismatchQuestion, Mangle}},
		{spec: "persistent:0.3", classes: []Class{Drop, Duplicate, Truncate, CorruptQID, MismatchQuestion, Mangle, FlipRCode}},
		{spec: "flap:10", classes: []Class{Flap}},
		{spec: "truncate:0.5,qid", classes: []Class{Truncate, CorruptQID}},
		{spec: "bogus", wantErr: true},
		{spec: "truncate:nope", wantErr: true},
		{spec: "transient:0.5", wantErr: true},
	}
	for _, tc := range cases {
		rules, err := ParseProfile(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseProfile(%q) succeeded, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseProfile(%q): %v", tc.spec, err)
			continue
		}
		if len(rules) != len(tc.classes) {
			t.Errorf("ParseProfile(%q) = %d rules, want %d", tc.spec, len(rules), len(tc.classes))
			continue
		}
		for i, c := range tc.classes {
			if rules[i].Class != c {
				t.Errorf("ParseProfile(%q)[%d].Class = %s, want %s", tc.spec, i, rules[i].Class, c)
			}
		}
	}
}
