package obs

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil counter should load 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Load() != 0 {
		t.Error("nil gauge should load 0")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram should stay empty")
	}
	var v *CounterVec
	v.With("x").Inc()
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(time.Second)
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
}

func TestRegistryGetOrCreateShares(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total")
	b := r.Counter("x_total")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Inc()
	if b.Load() != 1 {
		t.Fatal("shared handle did not observe the increment")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("requesting a counter name as a gauge must panic")
		}
	}()
	r.Gauge("x")
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0},
		{500 * time.Nanosecond, 0},  // sub-µs
		{time.Microsecond, 1},       // [1µs, 2µs)
		{1999 * time.Nanosecond, 1}, // still 1µs when truncated
		{2 * time.Microsecond, 2},   // [2µs, 4µs)
		{3 * time.Microsecond, 2},   //
		{4 * time.Microsecond, 3},   // [4µs, 8µs)
		{1024 * time.Microsecond, 11},
		{time.Hour, bucketIndex(time.Hour)},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.d); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	// Every bucket's bounds must tile the range contiguously.
	for i := 1; i < histBuckets; i++ {
		_, prevHi := bucketBounds(i - 1)
		lo, hi := bucketBounds(i)
		if lo != prevHi {
			t.Errorf("bucket %d: lo %v != previous hi %v", i, lo, prevHi)
		}
		if hi <= lo {
			t.Errorf("bucket %d: hi %v <= lo %v", i, hi, lo)
		}
		// An observation at the exact lower bound lands in bucket i, and
		// one just below it in bucket i-1.
		if got := bucketIndex(lo); got != i {
			t.Errorf("bucketIndex(lo of %d) = %d", i, got)
		}
		if got := bucketIndex(lo - time.Microsecond); lo > time.Microsecond && got != i-1 {
			t.Errorf("bucketIndex(just below lo of %d) = %d", i, got)
		}
	}
}

// TestHistogramQuantilesKnownDistribution checks the percentile math
// against distributions whose order statistics are known exactly. The
// estimate must land within the true value's bucket (factor-of-two
// resolution is the structural guarantee).
func TestHistogramQuantilesKnownDistribution(t *testing.T) {
	// Uniform: 1..1000 µs, one observation each.
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	checks := []struct {
		q    float64
		true time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.90, 900 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		lo, hi := bucketBounds(bucketIndex(c.true))
		if got < lo || got >= hi {
			t.Errorf("uniform p%.0f = %v, want within [%v, %v)", c.q*100, got, lo, hi)
		}
	}
	if h.Count() != 1000 {
		t.Errorf("count = %d, want 1000", h.Count())
	}
	if h.Max() != 1000*time.Microsecond {
		t.Errorf("max = %v, want 1ms", h.Max())
	}
	wantSum := time.Duration(1000*1001/2) * time.Microsecond
	if h.Sum() != wantSum {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}

	// Bimodal: 90% fast (100µs), 10% slow (50ms) — the healthy-servers-
	// plus-timeouts shape a real scan produces. p50 must sit in the fast
	// mode's bucket, p99 in the slow mode's.
	b := &Histogram{}
	for i := 0; i < 900; i++ {
		b.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		b.Observe(50 * time.Millisecond)
	}
	if got := b.Quantile(0.50); bucketIndex(got) != bucketIndex(100*time.Microsecond) {
		t.Errorf("bimodal p50 = %v, want in the 100µs bucket", got)
	}
	if got := b.Quantile(0.99); bucketIndex(got) != bucketIndex(50*time.Millisecond) {
		t.Errorf("bimodal p99 = %v, want in the 50ms bucket", got)
	}

	// Single observation: every quantile is that observation's bucket,
	// clamped by the recorded max.
	s := &Histogram{}
	s.Observe(7 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got > 7*time.Millisecond || got < 4*time.Millisecond {
			t.Errorf("single-obs q%.1f = %v, want within (4ms, 7ms]", q, got)
		}
	}

	// Empty histogram.
	if got := (&Histogram{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestHistogramQuantileMonotone: quantile estimates must be monotone in
// q for arbitrary distributions.
func TestHistogramQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &Histogram{}
	for i := 0; i < 5000; i++ {
		h.Observe(time.Duration(rng.Int63n(int64(2 * time.Second))))
	}
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("quantile not monotone: q=%.2f gave %v after %v", q, got, prev)
		}
		prev = got
	}
}

// TestConcurrentIncrements hammers every instrument kind from many
// goroutines; run under -race this is the data-race gate, and the final
// totals check that no increment is lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("c_total")
			h := r.Histogram("h_seconds")
			v := r.CounterVecKeyed("v_total", "")
			gauge := r.Gauge("g")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
				v.With("a").Inc()
				if g%2 == 0 {
					v.With("b").Inc()
				}
				gauge.Add(1)
				if i%64 == 0 {
					_ = r.Snapshot()
					_ = h.Quantile(0.9)
				}
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("c_total").Load(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("h_seconds").Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := r.CounterVecKeyed("v_total", "").With("a").Load(); got != goroutines*perG {
		t.Errorf("vec[a] = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("g").Load(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("scan_domains_done_total").Add(42)
	r.Gauge("scan_domains_total").Set(100)
	r.Histogram("rtt").Observe(3 * time.Millisecond)
	r.CounterVecKeyed("outcome_total", "").With("ok").Add(7)

	s := r.Snapshot()
	if s.Counters["scan_domains_done_total"] != 42 {
		t.Errorf("counter snapshot = %d", s.Counters["scan_domains_done_total"])
	}
	if s.Counters["outcome_total{ok}"] != 7 {
		t.Errorf("vec snapshot = %d", s.Counters["outcome_total{ok}"])
	}
	if s.Gauges["scan_domains_total"] != 100 {
		t.Errorf("gauge snapshot = %d", s.Gauges["scan_domains_total"])
	}
	hs := s.Histograms["rtt"]
	if hs.Count != 1 || hs.SumNS != int64(3*time.Millisecond) {
		t.Errorf("histogram snapshot = %+v", hs)
	}

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back RegistrySnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["outcome_total{ok}"] != 7 || back.Histograms["rtt"].Count != 1 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestHTTPHandlerServesSnapshotAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("resolver_sent_total").Add(9)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	var s RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["resolver_sent_total"] != 9 {
		t.Errorf("served counter = %d, want 9", s.Counters["resolver_sent_total"])
	}

	pp, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	_ = pp.Body.Close()
	if pp.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline status = %d", pp.StatusCode)
	}
}

// TestSnapshotJSONDeterministic pins the snapshot serialization
// contract: metric and label keys are emitted in sorted order (as
// encoding/json writes map keys), so two /metrics snapshots of
// identical registry state are byte-identical and diff cleanly.
func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() RegistrySnapshot {
		r := NewRegistry()
		// Register in deliberately unsorted order; serialization must
		// not care.
		r.Counter("zeta_total").Add(3)
		r.Counter("alpha_total").Add(1)
		r.Gauge("mid_gauge").Set(-7)
		r.Gauge("another_gauge").Set(9)
		vec := r.CounterVecKeyed("outcome_total", "")
		vec.With("timeout").Add(2)
		vec.With("ok").Add(5)
		vec.With("malformed").Add(1)
		s := r.Snapshot()
		s.TakenAt = time.Unix(1700000000, 0).UTC() // fix the timestamp
		return s
	}

	a, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("identical registries serialized differently:\n%s\n%s", a, b)
	}

	want := `{"taken_at":"2023-11-14T22:13:20Z",` +
		`"counters":{"alpha_total":1,"outcome_total{malformed}":1,"outcome_total{ok}":5,` +
		`"outcome_total{timeout}":2,"zeta_total":3},` +
		`"gauges":{"another_gauge":9,"mid_gauge":-7}}`
	if string(a) != want {
		t.Errorf("snapshot serialization changed:\ngot  %s\nwant %s", a, want)
	}

	// The snapshot must round-trip through the struct tags the reader
	// side uses.
	var back RegistrySnapshot
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["outcome_total{ok}"] != 5 || back.Gauges["mid_gauge"] != -7 {
		t.Errorf("round trip lost data: %+v", back)
	}
}
