package pdns

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

func TestDayConversions(t *testing.T) {
	d := Date(2020, time.March, 15)
	if d.Time() != time.Date(2020, time.March, 15, 0, 0, 0, 0, time.UTC) {
		t.Errorf("Time() = %v", d.Time())
	}
	if d.Year() != 2020 {
		t.Errorf("Year() = %d", d.Year())
	}
	if d.String() != "2020-03-15" {
		t.Errorf("String() = %q", d.String())
	}
	if DayOf(time.Date(2020, time.March, 15, 23, 59, 0, 0, time.UTC)) != d {
		t.Error("DayOf ignores time-of-day incorrectly")
	}
}

func TestYearRange(t *testing.T) {
	from, to := YearRange(2020)
	if from.String() != "2020-01-01" || to.String() != "2020-12-31" {
		t.Errorf("YearRange(2020) = %s..%s", from, to)
	}
	// 2020 is a leap year: 366 days.
	if int(to-from)+1 != 366 {
		t.Errorf("2020 has %d days", int(to-from)+1)
	}
}

func TestObserveCreatesAndExtends(t *testing.T) {
	s := NewStore()
	d1 := Date(2015, time.June, 1)
	d2 := Date(2015, time.June, 20)
	d0 := Date(2015, time.May, 20)
	s.ObserveRange("x.gov.br.", dnswire.TypeNS, "ns1.gov.br.", d1, d1)
	s.ObserveRange("x.gov.br.", dnswire.TypeNS, "ns1.gov.br.", d2, d2)
	s.ObserveRange("x.gov.br.", dnswire.TypeNS, "ns1.gov.br.", d0, d0)

	sets := s.Lookup("x.gov.br.", dnswire.TypeNS)
	if len(sets) != 1 {
		t.Fatalf("got %d record sets", len(sets))
	}
	rs := sets[0]
	if rs.FirstSeen != d0 || rs.LastSeen != d2 || rs.Count != 3 {
		t.Errorf("record set = %+v", rs)
	}
	if rs.DurationDays() != 32 {
		t.Errorf("DurationDays = %d, want 32", rs.DurationDays())
	}
}

func TestObserveRange(t *testing.T) {
	s := NewStore()
	from, to := Date(2012, time.January, 1), Date(2012, time.January, 10)
	s.ObserveRange("y.gov.br.", dnswire.TypeNS, "ns1.y.gov.br.", from, to)
	sets := s.Lookup("y.gov.br.", dnswire.TypeNS)
	if len(sets) != 1 || sets[0].FirstSeen != from || sets[0].LastSeen != to {
		t.Fatalf("sets = %+v", sets)
	}
	if sets[0].Count != 10 {
		t.Errorf("Count = %d, want 10", sets[0].Count)
	}
	// Reversed arguments are normalised.
	s.ObserveRange("y.gov.br.", dnswire.TypeNS, "ns1.y.gov.br.", to+5, from-5)
	sets = s.Lookup("y.gov.br.", dnswire.TypeNS)
	if sets[0].FirstSeen != from-5 || sets[0].LastSeen != to+5 {
		t.Errorf("after reversed range: %+v", sets[0])
	}
}

func TestLookupFiltersByType(t *testing.T) {
	s := NewStore()
	d := Date(2019, time.July, 1)
	s.ObserveRange("x.gov.br.", dnswire.TypeNS, "ns1.gov.br.", d, d)
	s.ObserveRange("x.gov.br.", dnswire.TypeA, "192.0.2.1", d, d)
	if got := len(s.Lookup("x.gov.br.", dnswire.TypeNS)); got != 1 {
		t.Errorf("NS lookup = %d sets", got)
	}
	if got := len(s.Lookup("x.gov.br.", 0)); got != 2 {
		t.Errorf("all-type lookup = %d sets", got)
	}
}

func TestWildcardSearch(t *testing.T) {
	s := NewStore()
	d := Date(2020, time.February, 2)
	s.ObserveRange("a.gov.br.", dnswire.TypeNS, "ns1.a.gov.br.", d, d)
	s.ObserveRange("b.a.gov.br.", dnswire.TypeNS, "ns1.b.a.gov.br.", d, d)
	s.ObserveRange("c.gov.cn.", dnswire.TypeNS, "ns1.c.gov.cn.", d, d)
	s.ObserveRange("gov.br.", dnswire.TypeNS, "ns1.gov.br.", d, d)

	got := s.WildcardSearch("gov.br.", dnswire.TypeNS)
	if len(got) != 3 {
		t.Fatalf("WildcardSearch(gov.br.) = %d sets, want 3", len(got))
	}
	for _, rs := range got {
		if !rs.RRName.IsSubdomainOf("gov.br.") {
			t.Errorf("out-of-scope result %q", rs.RRName)
		}
	}
	if len(s.Snapshot()) != 4 {
		t.Errorf("Snapshot = %d sets", len(s.Snapshot()))
	}
}

func TestStableFilter(t *testing.T) {
	s := NewStore()
	start := Date(2020, time.May, 1)
	// 1-day transient record vs 10-day stable record.
	s.ObserveRange("flaky.gov.br.", dnswire.TypeNS, "ns.ddos-shield.com.", start, start)
	s.ObserveRange("steady.gov.br.", dnswire.TypeNS, "ns1.gov.br.", start, start+9)

	v := NewView(s.Snapshot())
	stable := v.Stable(StabilityFilterDays)
	if len(stable.Sets) != 1 || stable.Sets[0].RRName != "steady.gov.br." {
		t.Errorf("Stable sets = %+v", stable.Sets)
	}
	// Threshold is inclusive: exactly 7 days passes.
	s.ObserveRange("exact.gov.br.", dnswire.TypeNS, "ns1.gov.br.", start, start+6)
	stable = NewView(s.Snapshot()).Stable(StabilityFilterDays)
	if len(stable.Sets) != 2 {
		t.Errorf("inclusive threshold: %d sets, want 2", len(stable.Sets))
	}
}

func TestViewBetweenAndOfType(t *testing.T) {
	s := NewStore()
	s.ObserveRange("old.gov.br.", dnswire.TypeNS, "ns1.", Date(2011, 1, 1), Date(2012, 6, 30))
	s.ObserveRange("new.gov.br.", dnswire.TypeNS, "ns2.", Date(2019, 1, 1), Date(2020, 6, 30))
	s.ObserveRange("new.gov.br.", dnswire.TypeA, "192.0.2.1", Date(2019, 1, 1), Date(2020, 6, 30))

	v := NewView(s.Snapshot())
	y2012from, y2012to := YearRange(2012)
	in2012 := v.Between(y2012from, y2012to)
	if len(in2012.Sets) != 1 || in2012.Sets[0].RRName != "old.gov.br." {
		t.Errorf("2012 sets = %+v", in2012.Sets)
	}
	y2020from, y2020to := YearRange(2020)
	var ns []RecordSet
	for _, rs := range v.Between(y2020from, y2020to).Sets {
		if rs.RRType == dnswire.TypeNS {
			ns = append(ns, rs)
		}
	}
	if len(ns) != 1 || ns[0].RData != "ns2." {
		t.Errorf("2020 NS sets = %+v", ns)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	s := NewStore()
	s.ObserveRange("a.gov.br.", dnswire.TypeNS, "ns1.a.gov.br.", Date(2011, 3, 1), Date(2015, 4, 1))
	s.ObserveRange("b.gov.cn.", dnswire.TypeNS, "ns1.hichina.com.", Date(2020, 7, 7), Date(2020, 7, 7))
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	s2, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("round trip changed Len: %d -> %d", s.Len(), s2.Len())
	}
	a, b := s.Snapshot(), s2.Snapshot()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("record %d: %+v != %+v", i, a[i], b[i])
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Error("ReadJSONL accepted garbage")
	}
}

func TestActiveOnOverlapsProperty(t *testing.T) {
	f := func(first, length uint16, probe int16) bool {
		rs := RecordSet{FirstSeen: Day(first), LastSeen: Day(first) + Day(length%400)}
		d := Day(int32(first) + int32(probe%500))
		want := d >= rs.FirstSeen && d <= rs.LastSeen
		if rs.Overlaps(d, d) != want {
			return false
		}
		// A record always overlaps its own window.
		return rs.Overlaps(rs.FirstSeen, rs.LastSeen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentObserve(t *testing.T) {
	s := NewStore()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				d := Date(2020, 1, 1) + Day(i%30)
				s.ObserveRange("x.gov.br.", dnswire.TypeNS, "ns1.gov.br.", d, d)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	sets := s.Lookup("x.gov.br.", dnswire.TypeNS)
	if len(sets) != 1 || sets[0].Count != 1600 {
		t.Errorf("after concurrent observes: %+v", sets)
	}
}

// TestBulkReadsSortOutsideLock pins the lock scope of the bulk read
// paths: by the time the result is sorted, the store must be fully
// unlocked, so a writer can take the write lock immediately.
func TestBulkReadsSortOutsideLock(t *testing.T) {
	s := NewStore()
	d := Date(2015, time.June, 1)
	s.ObserveRange("a.gov.br.", dnswire.TypeNS, "ns1.gov.br.", d, d)
	s.ObserveRange("b.gov.br.", dnswire.TypeNS, "ns2.gov.br.", d, d)

	locked := true
	sortOutsideLockHook = func() {
		if s.mu.TryLock() {
			s.mu.Unlock()
			locked = false
		}
	}
	defer func() { sortOutsideLockHook = nil }()

	s.Snapshot()
	if locked {
		t.Error("WildcardSearch still holds the store lock while sorting")
	}
	locked = true
	s.Lookup("a.gov.br.", dnswire.TypeNS)
	if locked {
		t.Error("Lookup still holds the store lock while sorting")
	}
}

// TestWildcardSearchAdmitsWritersDuringSort is the starvation
// regression test: an ObserveRange writer must complete while a bulk read
// is still busy sorting its result. Before the fix the sort ran under
// the read lock, so one big Snapshot parked every writer (and, through
// the pending writer, every later reader) for the whole O(n log n)
// sort.
func TestWildcardSearchAdmitsWritersDuringSort(t *testing.T) {
	s := NewStore()
	d := Date(2015, time.June, 1)
	for i := 0; i < 100; i++ {
		s.ObserveRange(dnsname.Name(fmt.Sprintf("d%03d.gov.br.", i)), dnswire.TypeNS, "ns1.gov.br.", d, d)
	}

	inSort := make(chan struct{})
	release := make(chan struct{})
	sortOutsideLockHook = func() {
		close(inSort)
		<-release
	}
	defer func() { sortOutsideLockHook = nil }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Snapshot()
	}()

	<-inSort
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		s.ObserveRange("new.gov.br.", dnswire.TypeNS, "ns9.gov.br.", d, d)
	}()
	select {
	case <-wrote:
		// The writer got in while the reader was parked in its sort
		// phase — the lock was released before sorting.
	case <-time.After(5 * time.Second):
		t.Fatal("ObserveRange blocked while WildcardSearch sorted its result")
	}
	close(release)
	<-done
}

// BenchmarkReadJSONL measures a full dump load — the path pdnsq pays
// on every invocation — for a dump as WriteJSONL writes it and for the
// same dump with every tenth, or every, line padded so that
// encoding/json decodes it; decoder-loop is the plain json.Decoder loop
// over the plain dump, for comparison.
func BenchmarkReadJSONL(b *testing.B) {
	s := NewStore()
	base := Date(2015, time.January, 1)
	for i := 0; i < 5000; i++ {
		name := dnsname.Name(fmt.Sprintf("d%04d.gov.br.", i))
		s.ObserveRange(name, dnswire.TypeNS, fmt.Sprintf("ns%d.host.gov.br.", i%97), base, base+30)
		s.ObserveRange(name, dnswire.TypeA, "198.51.100.7", base, base+30)
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		b.Fatal(err)
	}
	padEvery := func(k int) []byte {
		var out bytes.Buffer
		for i, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
			if i%k == 0 {
				out.WriteByte(' ')
			}
			out.Write(line)
		}
		return out.Bytes()
	}
	read := func(data []byte) (*Store, error) { return ReadJSONL(bytes.NewReader(data)) }
	for _, bc := range []struct {
		name string
		data []byte
		load func([]byte) (*Store, error)
	}{
		{"plain", buf.Bytes(), read},
		{"odd-1-in-10", padEvery(10), read},
		{"odd-all", padEvery(1), read},
		{"decoder-loop", buf.Bytes(), decodeLoop},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(s.Len()), "recordsets")
			for i := 0; i < b.N; i++ {
				loaded, err := bc.load(bc.data)
				if err != nil {
					b.Fatal(err)
				}
				if loaded.Len() != s.Len() {
					b.Fatalf("loaded %d sets, want %d", loaded.Len(), s.Len())
				}
			}
		})
	}
}

// sampleStore is a small store with several owners, types and records
// per owner, observed in no particular order.
func sampleStore() *Store {
	s := NewStore()
	base := Date(2015, time.January, 1)
	for i := 0; i < 300; i++ {
		name := dnsname.Name(fmt.Sprintf("d%03d.gov.br.", (i*7)%300))
		s.ObserveRange(name, dnswire.TypeNS, fmt.Sprintf("ns%d.host%d.net.", i%3, i%17), base+Day(i), base+Day(i+40))
		s.ObserveRange(name, dnswire.TypeNS, "ns1.gov.br.", base, base+Day(i))
		if i%4 == 0 {
			s.ObserveRange(name, dnswire.TypeA, "198.51.100.7", base+Day(i), base+Day(i))
		}
	}
	return s
}

// TestSnapshotOfReReadDumpNeedsNoReorder: a dump is written sorted, so
// a store read back from it holds its record sets in output order
// already (and has had no reason to build its key index); the same
// dump with its lines shuffled still yields the same snapshot.
func TestSnapshotOfReReadDumpNeedsNoReorder(t *testing.T) {
	s := sampleStore()
	want := s.Snapshot()
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	reread, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSortedFunc(reread.sets, compareSets) {
		t.Error("record sets of a re-read dump are not in snapshot order")
	}
	if reread.index != nil {
		t.Error("reading a sorted dump built the key index")
	}
	if got := reread.Snapshot(); !slices.Equal(got, want) {
		t.Error("snapshot of the re-read dump differs from the original's")
	}

	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	rand.New(rand.NewSource(1)).Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	shuffled, err := ReadJSONL(bytes.NewReader(bytes.Join(lines, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if got := shuffled.Snapshot(); !slices.Equal(got, want) {
		t.Error("snapshot of the shuffled dump differs from the original's")
	}

	// A re-read store is still a store: a write finds the loaded key.
	first := want[0]
	reread.ObserveRange(first.RRName, first.RRType, first.RData, first.LastSeen+1, first.LastSeen+1)
	got := reread.Lookup(first.RRName, first.RRType)
	if reread.Len() != len(want) || len(got) == 0 || got[0].LastSeen != first.LastSeen+1 || got[0].Count != first.Count+1 {
		t.Errorf("ObserveRange of a loaded key: Len %d -> %d, record %+v", len(want), reread.Len(), got)
	}
}

// decodeLoop is what ReadJSONL must be indistinguishable from: a plain
// json.Decoder loop over the whole stream, merging into a store.
func decodeLoop(data []byte) (*Store, error) {
	s := NewStore()
	dec := json.NewDecoder(bytes.NewReader(data))
	for n := 1; dec.More(); n++ {
		var rs RecordSet
		if err := dec.Decode(&rs); err != nil {
			return nil, fmt.Errorf("pdns: decoding record set %d: %w", n, err)
		}
		s.merge(rs)
	}
	return s, nil
}

// checkAgainstDecodeLoop fails the test unless ReadJSONL and the plain
// decoder loop either both reject data, with the same message, or load
// stores with equal snapshots; it returns the loaded store, if any.
func checkAgainstDecodeLoop(t *testing.T, data []byte) *Store {
	t.Helper()
	want, wantErr := decodeLoop(data)
	got, gotErr := ReadJSONL(bytes.NewReader(data))
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("ReadJSONL error = %v, json.Decoder loop error = %v\ninput: %q", gotErr, wantErr, data)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("ReadJSONL error %q, json.Decoder loop error %q\ninput: %q", gotErr, wantErr, data)
		}
		return nil
	}
	if !slices.Equal(got.Snapshot(), want.Snapshot()) {
		t.Fatalf("ReadJSONL loaded %+v\njson.Decoder loop loaded %+v\ninput: %q", got.Snapshot(), want.Snapshot(), data)
	}
	// How the bytes arrive must not matter.
	trickled, err := ReadJSONL(&failingReader{data: data, err: io.EOF})
	if err != nil || !slices.Equal(trickled.Snapshot(), want.Snapshot()) {
		t.Fatalf("ReadJSONL of the same input in short reads: error %v, or a different store\ninput: %q", err, data)
	}
	return got
}

const plainLine = `{"rrname":"a.gov.br.","rrtype":2,"rdata":"ns1.gov.br.","time_first":16436,"time_last":16500,"count":65}` + "\n"

// TestReadJSONLFallbackLines: lines that are valid JSON but not in
// WriteJSONL's exact form load to the record encoding/json produces,
// wherever they sit among plain lines.
func TestReadJSONLFallbackLines(t *testing.T) {
	odd := map[string]string{
		"escaped quote":   `{"rrname":"t.gov.br.","rrtype":16,"rdata":"say \"hi\"","time_first":1,"time_last":9,"count":2}`,
		"unicode escape":  `{"rrname":"t.gov.br.","rrtype":16,"rdata":"caf\u00e9","time_first":1,"time_last":9,"count":2}`,
		"raw non-ASCII":   `{"rrname":"t.gov.br.","rrtype":16,"rdata":"café","time_first":1,"time_last":9,"count":2}`,
		"html escape":     `{"rrname":"t.gov.br.","rrtype":16,"rdata":"v=spf1 <all","time_first":1,"time_last":9,"count":2}`,
		"key order":       `{"count":2,"time_last":9,"time_first":1,"rdata":"x.","rrtype":2,"rrname":"t.gov.br."}`,
		"unknown key":     `{"rrname":"t.gov.br.","rrtype":2,"rdata":"x.","time_first":1,"time_last":9,"count":2,"source":"sensor7"}`,
		"missing key":     `{"rrname":"t.gov.br.","rrtype":2,"rdata":"x."}`,
		"padding":         `  { "rrname" : "t.gov.br." , "rrtype" : 2, "rdata": "x.", "time_first": 1, "time_last": 9, "count": 2 }  `,
		"carriage return": `{"rrname":"t.gov.br.","rrtype":2,"rdata":"x.","time_first":1,"time_last":9,"count":2}` + "\r",
		"negative day":    `{"rrname":"t.gov.br.","rrtype":2,"rdata":"x.","time_first":-5,"time_last":-0,"count":2}`,
		"spans lines":     "{\"rrname\":\"t.gov.br.\",\n\"rrtype\":2,\"rdata\":\"x.\",\n\"time_first\":1,\"time_last\":9,\"count\":2}",
		"shares a line": `{"rrname":"t.gov.br.","rrtype":2,"rdata":"x.","time_first":1,"time_last":9,"count":2} ` +
			`{"rrname":"u.gov.br.","rrtype":2,"rdata":"y.","time_first":1,"time_last":9,"count":2}`,
		"abuts another": `{"rrname":"t.gov.br.","rrtype":2,"rdata":"x.","time_first":1,"time_last":9,"count":2}` +
			`{"rrname":"u.gov.br.","rrtype":2,"rdata":"y.","time_first":1,"time_last":9,"count":2}`,
		"duplicate key": `{"rrname":"a.gov.br.","rrtype":2,"rdata":"ns1.gov.br.","time_first":16000,"time_last":16437,"count":5}`,
		"null":          `null`,
		"blank":         ``,
	}
	for name, line := range odd {
		for _, data := range []string{line, line + "\n", plainLine + line + "\n" + plainLine, line + "\n" + plainLine + line} {
			if s := checkAgainstDecodeLoop(t, []byte(data)); s == nil {
				t.Errorf("%s: rejected %q", name, data)
			}
		}
	}
	// The escapes decode, they are not kept verbatim; a repeated key
	// merges.
	s := checkAgainstDecodeLoop(t, []byte(odd["unicode escape"]))
	if got := s.Snapshot(); len(got) != 1 || got[0].RData != "café" {
		t.Errorf("unicode escape loaded as %+v", got)
	}
	s = checkAgainstDecodeLoop(t, []byte(plainLine+odd["duplicate key"]+"\n"+plainLine))
	if got := s.Snapshot(); len(got) != 1 || got[0].FirstSeen != 16000 || got[0].LastSeen != 16500 || got[0].Count != 135 {
		t.Errorf("duplicate keys merged to %+v", got)
	}
}

// TestReadJSONLMixedDump runs a dump larger than the read buffer with
// odd lines scattered through it: every hand-over to encoding/json and
// back has to land on the right byte.
func TestReadJSONLMixedDump(t *testing.T) {
	var dump bytes.Buffer
	if err := sampleStore().WriteJSONL(&dump); err != nil {
		t.Fatal(err)
	}
	var mixed bytes.Buffer
	for i, line := range bytes.SplitAfter(dump.Bytes(), []byte("\n")) {
		switch {
		case i%7 == 3:
			mixed.WriteString("  \t")
			mixed.Write(line)
		case i%11 == 5:
			mixed.Write(bytes.TrimSuffix(line, []byte("\n")))
			mixed.WriteString(`{"rrname":"extra.gov.br.","rrtype":16,"rdata":"caf\u00e9 \"x\"","time_first":3,"time_last":4,"count":1}` + "\n")
		case i%13 == 6:
			mixed.Write(bytes.Replace(line, []byte(`,"rrtype"`), []byte(",\n \"rrtype\""), 1))
		default:
			mixed.Write(line)
		}
	}
	if mixed.Len() <= 64<<10 {
		t.Fatalf("dump of %d bytes does not exceed the read buffer", mixed.Len())
	}
	if s := checkAgainstDecodeLoop(t, mixed.Bytes()); s == nil {
		t.Error("mixed dump rejected")
	}
}

// TestReadJSONLRejectsWhatTheDecoderRejects: malformed and out-of-range
// input fails with the json.Decoder loop's error, numbered by value.
func TestReadJSONLRejectsWhatTheDecoderRejects(t *testing.T) {
	for _, bad := range []string{
		`{"rrname":"t.gov.br.","rrtype":2,"rdata":"x.","time_first":1,"time_last":9,"count":2`,
		`{"rrname":"t.gov.br.","rrtype":70000,"rdata":"x.","time_first":1,"time_last":9,"count":2}`,
		`{"rrname":"t.gov.br.","rrtype":2,"rdata":"x.","time_first":01,"time_last":9,"count":2}`,
		`{"rrname":"t.gov.br.","rrtype":2,"rdata":"x.","time_first":1,"time_last":2147483648,"count":2}`,
		`{"rrname":"t.gov.br.","rrtype":2,"rdata":"x.","time_first":1,"time_last":9,"count":-2}`,
		`{"rrname":"t.gov.br.","rrtype":2,"rdata":"x.","time_first":1,"time_last":9,"count":99999999999999999999}`,
		`{"rrname":"t.gov.br.","rrtype":2,"rdata":"x.","time_first":1.5,"time_last":9,"count":2}`,
		`{"rrname":"t.gov.br.","rrtype":2,"rdata":"tab	here","time_first":1,"time_last":9,"count":2}`,
		`[1,2,3]`,
		`"just a string"`,
	} {
		for _, data := range []string{bad, plainLine + plainLine + bad + "\n" + plainLine} {
			if s := checkAgainstDecodeLoop(t, []byte(data)); s != nil {
				t.Errorf("accepted %q", data)
			}
		}
	}
	_, err := ReadJSONL(strings.NewReader(plainLine + plainLine + "{not json"))
	if err == nil || !strings.Contains(err.Error(), "decoding record set 3") {
		t.Errorf("error %v does not name record set 3", err)
	}
	// A stray closing bracket ends a json.Decoder loop without an
	// error; so it does here.
	if s := checkAgainstDecodeLoop(t, []byte(plainLine+"]"+plainLine)); s == nil || s.Len() != 1 {
		t.Error("input after a stray ] was not ignored")
	}
}

// failingReader yields data a few bytes at a time, then err.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data[:min(len(f.data), 7)])
	f.data = f.data[n:]
	return n, nil
}

func TestReadJSONLReportsReadErrors(t *testing.T) {
	boom := errors.New("disk on fire")
	for _, data := range []string{plainLine + plainLine, plainLine + `{"rrname": "t.`, ""} {
		_, err := ReadJSONL(&failingReader{data: []byte(data), err: boom})
		if !errors.Is(err, boom) {
			t.Errorf("after %q: error %v, want the reader's", data, err)
		}
	}
	// Short reads alone are not an error.
	s, err := ReadJSONL(&failingReader{data: []byte(plainLine + plainLine), err: io.EOF})
	if err != nil || s.Len() != 1 {
		t.Errorf("short reads: %v, %v", s, err)
	}
}

// TestReadJSONLAllocations gates a plain dump and the same dump with one
// odd line near the top: the lines behind a value that encoding/json
// decoded must be decoded in place again, not each by a decoder of its
// own.
func TestReadJSONLAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := sampleStore()
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	plain := buf.Bytes()
	third := bytes.IndexByte(plain, '\n') + 1
	third += bytes.IndexByte(plain[third:], '\n') + 1
	odd := `{"rrname":"t.gov.br.","rrtype":16,"rdata":"v=spf1 \u003call \"x\"","time_first":1,"time_last":9,"count":2}` + "\n"
	for name, data := range map[string][]byte{
		"plain dump":        plain,
		"one odd line atop": slices.Concat(plain[:third], []byte(odd), plain[third:]),
	} {
		perRun := testing.AllocsPerRun(10, func() {
			if _, err := ReadJSONL(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
		if perRecord := perRun / float64(s.Len()); perRecord > 3 {
			t.Errorf("%s: ReadJSONL allocates %.2f times per record set, want at most 3", name, perRecord)
		}
	}
}

// TestReadJSONLStringBlocks: the strings a read copies into shared
// blocks keep their bytes while later lines fill the same and further
// blocks, an rdata longer than a quarter block included, and reading
// costs well under one allocation per record set.
func TestReadJSONLStringBlocks(t *testing.T) {
	s := NewStore()
	base := Date(2015, time.January, 1)
	for i := 0; i < 3000; i++ {
		name := dnsname.Name(fmt.Sprintf("d%04d.gov.br.", i/3))
		rdata := fmt.Sprintf("ns%d.%s.net.", i, strings.Repeat("h", i%50))
		if i == 1500 {
			rdata = strings.Repeat("x", stringBlockSize/4+1) + "."
		}
		s.ObserveRange(name, dnswire.TypeNS, rdata, base, base+Day(i))
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.Bytes()
	got, err := ReadJSONL(bytes.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if want, got := s.Snapshot(), got.Snapshot(); !slices.Equal(got, want) {
		t.Fatalf("read back %d record sets that differ from the %d written", len(got), len(want))
	}
	if raceEnabled {
		return // allocation counts differ under the race detector
	}
	perRun := testing.AllocsPerRun(5, func() {
		if _, err := ReadJSONL(bytes.NewReader(dump)); err != nil {
			t.Fatal(err)
		}
	})
	if perRecord := perRun / float64(s.Len()); perRecord > 0.1 {
		t.Errorf("ReadJSONL allocates %.3f times per record set, want at most 0.1", perRecord)
	}
}

// FuzzReadJSONL: whatever the input, ReadJSONL and a plain json.Decoder
// loop both reject it, or load stores with equal snapshots.
func FuzzReadJSONL(f *testing.F) {
	var dump bytes.Buffer
	if err := sampleStore().WriteJSONL(&dump); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.Bytes()[:2000])
	f.Add([]byte(plainLine + plainLine))
	f.Add([]byte(strings.TrimSuffix(plainLine, "\n")))
	f.Add([]byte(`{"rrname":"t.","rrtype":16,"rdata":"say \"hi\" caf\u00e9 café","time_first":1,"time_last":9,"count":2}` + "\n" + plainLine))
	f.Add([]byte(`{"count":2,"rrname":"t.","extra":[1,{"a":null}],"RDATA":"x"}` + "\n"))
	f.Add([]byte(`{"rrname":"t.","rrtype":99999,"rdata":"","time_first":-3,"time_last":99999999999,"count":18446744073709551616}`))
	f.Add([]byte(plainLine + ` {"rrname":"t."} {"rrname":"u."}` + "\n]" + plainLine))
	f.Add([]byte("{\"rrname\":\n\"t.\"}\n\n\r\n" + plainLine))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstDecodeLoop(t, data)
	})
}
