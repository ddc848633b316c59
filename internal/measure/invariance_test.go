package measure

import (
	"context"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"govdns/internal/chaos"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/miniworld"
	"govdns/internal/resolver"
	"govdns/internal/worldgen"
)

// The differential harness: a scan's digest must be a function of the
// world alone — not of worker count, per-domain fan-out, or transient
// wire damage the second round can outlast. These tests are the
// correctness gate later performance work is measured against.

// scanConfigs are the concurrency/fan-out shapes every invariance
// property is checked across: fully serial, moderately parallel, and
// wider-than-the-world.
var scanConfigs = []struct {
	workers, fanout int
}{
	{1, 1},
	{8, 2},
	{64, 8},
}

// scanWith runs one full scan of domains over transport with the given
// schedule shape. Each call builds a fresh client and iterator so no
// cache state leaks between scans. The tight 10ms deadline and single
// retry give the miniworld recovery test exact fault-window arithmetic.
func scanWith(t *testing.T, tr resolver.Transport, roots []netip.Addr, domains []dnsname.Name, workers, fanout int, adaptive bool) []*DomainResult {
	return scanTuned(t, tr, roots, domains, workers, fanout, adaptive, 10*time.Millisecond, 1)
}

// scanTuned is scanWith with an explicit deadline and retry budget. The
// worldgen-scale tests use a roomier deadline and no retry: hundreds of
// goroutines park on dead-server timers there, and a deadline within
// scheduling noise of zero would let wall-clock pressure time out a
// *live* exchange and break digest invariance for real.
func scanTuned(t *testing.T, tr resolver.Transport, roots []netip.Addr, domains []dnsname.Name, workers, fanout int, adaptive bool, timeout time.Duration, retries int) []*DomainResult {
	return scanPooled(t, tr, roots, domains, workers, fanout, adaptive, timeout, retries, nil)
}

// scanPooled is scanTuned with an explicit codec-arena pool on the
// client (nil uses dnswire.DefaultPool), for the pooled-vs-unpooled
// invariance check.
func scanPooled(t *testing.T, tr resolver.Transport, roots []netip.Addr, domains []dnsname.Name, workers, fanout int, adaptive bool, timeout time.Duration, retries int, pool *dnswire.Pool) []*DomainResult {
	t.Helper()
	client := resolver.NewClient(tr)
	client.Timeout = timeout
	client.Retries = retries
	client.WirePool = pool
	it := resolver.NewIterator(client, roots)
	it.AdaptiveOrder = adaptive
	s := NewScanner(it)
	s.Concurrency = workers
	s.PerDomainParallelism = fanout
	return s.Scan(context.Background(), domains)
}

// assertResultInvariants checks the shape every DomainResult must hold
// no matter how the scan ended — completed, degraded, or cancelled:
// non-nil, at least one round attempted, and a non-nil Addrs map.
// Downstream analyses rely on these without re-checking per result.
func assertResultInvariants(t *testing.T, results []*DomainResult) {
	t.Helper()
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		if r.Rounds < 1 {
			t.Errorf("%s: Rounds = %d, want >= 1", r.Domain, r.Rounds)
		}
		if r.Addrs == nil {
			t.Errorf("%s: nil Addrs map", r.Domain)
		}
	}
}

// worldDeadline is the per-query deadline for worldgen-scale scans —
// the simulator's default, far enough from scheduling noise that a
// *live* exchange cannot time out just because hundreds of goroutines
// are parked on dead-server timers.
const worldDeadline = 25 * time.Millisecond

// TestScanInvarianceAcrossConfigs: the same (seed, scale) world scanned
// under three different concurrency/fan-out configurations must produce
// bit-identical digests.
func TestScanInvarianceAcrossConfigs(t *testing.T) {
	w := worldgen.Generate(worldgen.Config{Seed: 42, Scale: 0.002})
	active := worldgen.Build(w)

	var want string
	for _, cfg := range scanConfigs {
		results := scanTuned(t, active.Net, active.Roots, active.QueryList, cfg.workers, cfg.fanout, true, worldDeadline, 0)
		assertResultInvariants(t, results)
		got := DigestHex(results)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("config (workers=%d fanout=%d): digest %s != %s",
				cfg.workers, cfg.fanout, got, want)
		}
	}
}

// TestScanInvariancePersistentChaosReproducibleAndMonotone: two
// properties that persistent, content-keyed chaos must satisfy at world
// scale. First, a serial scan is fully reproducible: rerunning the same
// (world seed, chaos seed) pair digests identically, because with one
// worker the query stream — and thus every content-keyed fault draw — is
// a pure function of the world. Second, degradation is monotone across
// every schedule shape: chaos can only withhold or damage answers, so no
// domain may classify *healthier* under chaos than in a clean scan.
// Bit-identical cross-config digests are deliberately not asserted here:
// a walk's query set depends on zone-cache warm-up order (a warm cache
// skips ancestor queries a cold one must issue), so under faults the
// per-domain outcome legitimately varies with scheduling even though
// every individual query is answered deterministically. AdaptiveOrder is
// off so health feedback does not additionally reorder server choices.
func TestScanInvariancePersistentChaosReproducibleAndMonotone(t *testing.T) {
	w := worldgen.Generate(worldgen.Config{Seed: 42, Scale: 0.002})
	active := worldgen.Build(w)

	rules := []chaos.Rule{
		chaos.Persistent(chaos.Drop, 0.03),
		chaos.Persistent(chaos.Truncate, 0.05),
		chaos.Persistent(chaos.FlipRCode, 0.05),
		chaos.Persistent(chaos.CorruptQID, 0.02),
		chaos.Persistent(chaos.MismatchQuestion, 0.02),
		chaos.Persistent(chaos.Mangle, 0.02),
	}

	clean := scanTuned(t, active.Net, active.Roots, active.QueryList, 8, 2, false, worldDeadline, 0)
	cleanClass := make(map[dnsname.Name]Classification, len(clean))
	for _, r := range clean {
		cleanClass[r.Domain] = r.Classify()
	}

	var serial string
	for _, cfg := range scanConfigs {
		tr := chaos.Wrap(active.Net, 7, rules...)
		results := scanTuned(t, tr, active.Roots, active.QueryList, cfg.workers, cfg.fanout, false, worldDeadline, 0)
		if tr.Stats().Total() == 0 {
			t.Fatal("chaos injected nothing; the test is vacuous")
		}
		if len(results) != len(active.QueryList) {
			t.Fatalf("config (workers=%d fanout=%d): %d results for %d domains",
				cfg.workers, cfg.fanout, len(results), len(active.QueryList))
		}
		if cfg.workers == 1 && cfg.fanout == 1 {
			serial = DigestHex(results)
		}
		assertResultInvariants(t, results)
		for _, r := range results {
			if c := r.Classify(); c == ClassHealthy && cleanClass[r.Domain] != ClassHealthy {
				t.Errorf("config (workers=%d fanout=%d): %s classified healthy under chaos but %s clean",
					cfg.workers, cfg.fanout, r.Domain, cleanClass[r.Domain])
			}
		}
	}

	// Reproducibility: a second serial run must digest identically to the
	// serial run above.
	tr := chaos.Wrap(active.Net, 7, rules...)
	rerun := scanTuned(t, tr, active.Roots, active.QueryList, 1, 1, false, worldDeadline, 0)
	if got := DigestHex(rerun); got != serial {
		t.Errorf("serial persistent-chaos scan not reproducible: digest %s != %s", got, serial)
	}
}

// TestScanInvariancePooledVsUnpooled: arena recycling on the wire path
// is pure memory management, so a scan must digest identically whether
// the client's codec arenas come from the shared default pool, a
// dedicated pool, or a pool that never recycles (every exchange on a
// fresh arena). Checked twice: a clean parallel scan, and a serial scan
// under persistent content-keyed chaos — the latter pushes every decode
// error path (mangled packets, corrupted IDs, truncation) through the
// arena decoder, whose error strings feed the digest.
func TestScanInvariancePooledVsUnpooled(t *testing.T) {
	w := worldgen.Generate(worldgen.Config{Seed: 42, Scale: 0.002})
	active := worldgen.Build(w)

	pools := []struct {
		name string
		pool func() *dnswire.Pool
	}{
		{"default", func() *dnswire.Pool { return nil }},
		{"dedicated", dnswire.NewPool},
		{"norecycle", func() *dnswire.Pool { return &dnswire.Pool{NoRecycle: true} }},
	}
	rules := []chaos.Rule{
		chaos.Persistent(chaos.Drop, 0.03),
		chaos.Persistent(chaos.Truncate, 0.05),
		chaos.Persistent(chaos.FlipRCode, 0.05),
		chaos.Persistent(chaos.CorruptQID, 0.02),
		chaos.Persistent(chaos.MismatchQuestion, 0.02),
		chaos.Persistent(chaos.Mangle, 0.02),
	}

	var wantClean, wantChaos string
	for _, pc := range pools {
		pool := pc.pool()
		clean := scanPooled(t, active.Net, active.Roots, active.QueryList, 8, 2, true, worldDeadline, 0, pool)
		if got := DigestHex(clean); wantClean == "" {
			wantClean = got
		} else if got != wantClean {
			t.Errorf("clean scan with %s pool: digest %s != %s", pc.name, got, wantClean)
		}
		if pc.name == "dedicated" {
			// The pooled path must actually have engaged: arenas checked
			// out and recycled, not silently bypassed.
			if s := pool.Stats(); s.Checkouts == 0 || s.Recycles == 0 {
				t.Errorf("dedicated pool never cycled an arena: %+v", s)
			}
		}

		tr := chaos.Wrap(active.Net, 7, rules...)
		damaged := scanPooled(t, tr, active.Roots, active.QueryList, 1, 1, false, worldDeadline, 0, pc.pool())
		if tr.Stats().Total() == 0 {
			t.Fatal("chaos injected nothing; the test is vacuous")
		}
		if got := DigestHex(damaged); wantChaos == "" {
			wantChaos = got
		} else if got != wantChaos {
			t.Errorf("serial chaos scan with %s pool: digest %s != %s", pc.name, got, wantChaos)
		}
	}
}

// transientSchedules gives, per fault class, a windowed schedule sized to
// knock out the whole first round of a probe (client budget: 2 attempts,
// each discarding up to resolver.DefaultMaxDiscards rejected responses)
// and then go quiet, plus the round count the scanner is expected to
// report. Duplicate is the exception: a duplicate of the attempt's own
// re-sent query carries the current transaction ID and the right answer,
// so the client absorbs it within round one.
var transientSchedules = []struct {
	class  chaos.Class
	rules  []chaos.Rule
	rounds int
}{
	{chaos.Drop, []chaos.Rule{chaos.Transient(chaos.Drop, 2)}, 2},
	{chaos.Delay, []chaos.Rule{{Class: chaos.Delay, Count: 2, Delay: 60 * time.Millisecond}}, 2},
	{chaos.Duplicate, []chaos.Rule{chaos.Transient(chaos.Duplicate, 2)}, 1},
	{chaos.Truncate, []chaos.Rule{chaos.Transient(chaos.Truncate, 2)}, 2},
	{chaos.CorruptQID, []chaos.Rule{chaos.Transient(chaos.CorruptQID, 10)}, 2},
	{chaos.MismatchQuestion, []chaos.Rule{chaos.Transient(chaos.MismatchQuestion, 10)}, 2},
	{chaos.Mangle, []chaos.Rule{chaos.Transient(chaos.Mangle, 10)}, 2},
	{chaos.FlipRCode, []chaos.Rule{chaos.Transient(chaos.FlipRCode, 1)}, 2},
	{chaos.Flap, []chaos.Rule{chaos.FlapOutage(0, 2)}, 2},
}

// TestScanInvarianceTransientChaosRecovery: for every fault class, a
// scan whose probe targets are disturbed only transiently must converge
// — via the second round — to the digest of an undisturbed scan. The
// schedule targets the probe-only servers of city.gov.br (two NS) and
// single.gov.br (one NS), so delegation walks stay clean and the window
// arithmetic is exact; the scan runs serially because windowed rules
// depend on arrival order.
func TestScanInvarianceTransientChaosRecovery(t *testing.T) {
	w := miniworld.Build()
	domains := miniworld.Domains()

	clean := scanWith(t, w.Net, w.Roots, domains, 1, 1, true)
	want := DigestHex(clean)
	for _, r := range clean {
		if r.Domain == "city.gov.br." || r.Domain == "single.gov.br." {
			if !r.Responsive() || r.Rounds != 1 {
				t.Fatalf("clean scan: %s not healthy in one round", r.Domain)
			}
		}
	}

	for _, tc := range transientSchedules {
		t.Run(tc.class.String(), func(t *testing.T) {
			tr := w.ChaosProfile(3, map[dnsname.Name][]chaos.Rule{
				"ns1.city.gov.br.":   tc.rules,
				"ns2.city.gov.br.":   tc.rules,
				"ns1.single.gov.br.": tc.rules,
			})
			results := scanWith(t, tr, w.Roots, domains, 1, 1, true)
			if tr.Stats().Injected[tc.class] == 0 {
				t.Fatalf("no %s faults injected; the test is vacuous", tc.class)
			}
			if got := DigestHex(results); got != want {
				t.Errorf("digest under transient %s = %s, want clean %s", tc.class, got, want)
				for _, r := range results {
					t.Logf("  %s: rounds=%d class=%s err=%q faults=%+v",
						r.Domain, r.Rounds, r.Classify(), r.Err, r.Faults)
				}
			}
			for _, r := range results {
				if r.Domain != "city.gov.br." && r.Domain != "single.gov.br." {
					continue
				}
				if !r.Responsive() {
					t.Errorf("%s not recovered under transient %s", r.Domain, tc.class)
				}
				if r.Rounds != tc.rounds {
					t.Errorf("%s under transient %s: rounds=%d, want %d",
						r.Domain, tc.class, r.Rounds, tc.rounds)
				}
				// Only rejection classes leave fault traces: timeouts
				// (Drop, Delay, Flap) and accepted-but-useless answers
				// (FlipRCode) are visible in Stats, not in Trace.
				if tc.rounds == 2 && r.Faults.Total() == 0 &&
					tc.class != chaos.Drop && tc.class != chaos.Delay &&
					tc.class != chaos.Flap && tc.class != chaos.FlipRCode {
					t.Errorf("%s under transient %s: no faults recorded", r.Domain, tc.class)
				}
			}
			// Fault-accounting self-consistency: the per-domain counters
			// merged across rounds can never exceed what the transport
			// actually injected — a second round that re-counted round
			// one's faults would push the sum past the injected total.
			if field := faultField(tc.class); field != nil {
				var sum uint64
				for _, r := range results {
					sum += field(r.Faults)
				}
				if injected := tr.Stats().Injected[tc.class]; sum > injected {
					t.Errorf("merged %s faults across domains = %d > %d injected; rounds double-counted",
						tc.class, sum, injected)
				}
			}
		})
	}
}

// faultField maps a chaos class to the FaultCounts field its injections
// land in when the client rejects the damaged response. Classes the
// client experiences as silence (Drop, Delay, Flap) or accepts as a
// well-formed answer (FlipRCode) have no trace field and return nil.
func faultField(c chaos.Class) func(FaultCounts) uint64 {
	switch c {
	case chaos.Duplicate:
		return func(f FaultCounts) uint64 { return f.Duplicates }
	case chaos.Truncate:
		return func(f FaultCounts) uint64 { return f.Truncations }
	case chaos.CorruptQID:
		return func(f FaultCounts) uint64 { return f.QIDMismatches }
	case chaos.MismatchQuestion:
		return func(f FaultCounts) uint64 { return f.QuestionMismatches }
	default:
		return nil
	}
}

// TestScanInvariancePersistentChaosDegradesGracefully: when probe
// targets are *persistently* damaged, recovery is impossible — the scan
// must still terminate, classify the damaged domains as defective (never
// healthy), and leave undisturbed domains exactly as a clean scan found
// them.
func TestScanInvariancePersistentChaosDegradesGracefully(t *testing.T) {
	cases := []struct {
		name  string
		rules []chaos.Rule
	}{
		{"truncate", []chaos.Rule{chaos.Persistent(chaos.Truncate, 1)}},
		{"qid", []chaos.Rule{chaos.Persistent(chaos.CorruptQID, 1)}},
		{"mangle", []chaos.Rule{chaos.Persistent(chaos.Mangle, 1)}},
		{"rcode", []chaos.Rule{chaos.Persistent(chaos.FlipRCode, 1)}},
		{"drop", []chaos.Rule{chaos.Persistent(chaos.Drop, 1)}},
	}
	w := miniworld.Build()
	domains := miniworld.Domains()

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := w.ChaosProfile(5, map[dnsname.Name][]chaos.Rule{
				"ns1.city.gov.br.":   tc.rules,
				"ns2.city.gov.br.":   tc.rules,
				"ns1.single.gov.br.": tc.rules,
			})
			results := scanWith(t, tr, w.Roots, domains, 4, 2, true)
			if tr.Stats().Total() == 0 {
				t.Fatal("chaos injected nothing; the test is vacuous")
			}
			byDomain := make(map[dnsname.Name]*DomainResult, len(results))
			for _, r := range results {
				if r == nil {
					t.Fatal("nil result in scan output")
				}
				byDomain[r.Domain] = r
			}
			for _, d := range []dnsname.Name{"city.gov.br.", "single.gov.br."} {
				r := byDomain[d]
				if c := r.Classify(); c != ClassFullyLame {
					t.Errorf("%s under persistent %s classified %s, want %s",
						d, tc.name, c, ClassFullyLame)
				}
				if r.Rounds != 2 {
					t.Errorf("%s under persistent %s: rounds=%d, want 2 (retry must run and fail)",
						d, tc.name, r.Rounds)
				}
			}
			// Collateral check: domains whose servers were not targeted
			// keep their clean-world classification.
			for d, wantClass := range map[dnsname.Name]Classification{
				"lame.gov.br.":   ClassPartiallyLame,
				"dead.gov.br.":   ClassFullyLame,
				"hosted.gov.br.": ClassHealthy,
			} {
				if c := byDomain[d].Classify(); c != wantClass {
					t.Errorf("%s under persistent %s classified %s, want %s", d, tc.name, c, wantClass)
				}
			}
		})
	}
}

// exchangeLog records, per server address, the question of every query
// the wrapped transport carries, in the order the server receives them.
type exchangeLog struct {
	inner    resolver.Transport
	mu       sync.Mutex
	byServer map[netip.Addr][]string
}

func (l *exchangeLog) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	q, err := dnswire.Decode(query)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	if l.byServer == nil {
		l.byServer = map[netip.Addr][]string{}
	}
	l.byServer[server] = append(l.byServer[server], q.Questions[0].Name.String()+" "+q.Questions[0].Type.String())
	l.mu.Unlock()
	return l.inner.Exchange(ctx, server, query)
}

// TestSerialScanSendsTheSameExchanges: a serial scan under windowed
// chaos, with adaptive ordering on, sends every server the same queries
// in the same order on every run. Windowed faults key on those per-server
// sequences, so this is what makes such a scan reproducible at all. The
// schedule kills the gov.br servers' first walk answers, so later walks
// find them suspect and ask them together (the resolver counts each
// such group and its size); the exchanges of a group run concurrently,
// but each goes to its own server and every one of them is sent
// whichever answers first.
func TestSerialScanSendsTheSameExchanges(t *testing.T) {
	w := miniworld.Build()
	domains := miniworld.Domains()
	profile := map[dnsname.Name][]chaos.Rule{
		"ns1.gov.br.":      {chaos.Transient(chaos.Drop, 4)},
		"ns2.gov.br.":      {chaos.Transient(chaos.Drop, 2)},
		"ns1.city.gov.br.": {chaos.FlapOutage(1, 3)},
	}
	var runs [2]*exchangeLog
	var digests [2]string
	var stats [2]resolver.Stats
	for i := range runs {
		tr := w.ChaosProfile(3, profile)
		runs[i] = &exchangeLog{inner: tr}
		// scanWith's serial, adaptive scan, keeping the iterator to
		// read its counters.
		client := resolver.NewClient(runs[i])
		client.Timeout = 10 * time.Millisecond
		client.Retries = 1
		it := resolver.NewIterator(client, w.Roots)
		it.AdaptiveOrder = true
		s := NewScanner(it)
		s.Concurrency, s.PerDomainParallelism = 1, 1
		digests[i] = DigestHex(s.Scan(context.Background(), domains))
		stats[i] = it.Stats()
		if tr.Stats().Total() == 0 {
			t.Fatal("chaos injected nothing; the test is vacuous")
		}
	}
	if st := stats[0]; st.AskedTogether <= st.GroupsAskedTogether {
		t.Errorf("%d groups asked %d servers together; no walk asked two or more at once",
			st.GroupsAskedTogether, st.AskedTogether)
	}
	if a, b := stats[0], stats[1]; a.GroupsAskedTogether != b.GroupsAskedTogether || a.AskedTogether != b.AskedTogether {
		t.Errorf("runs asked %d/%d and %d/%d (groups/servers) together",
			a.GroupsAskedTogether, a.AskedTogether, b.GroupsAskedTogether, b.AskedTogether)
	}
	if digests[0] != digests[1] {
		t.Errorf("serial windowed-chaos scan not reproducible: digest %s != %s", digests[1], digests[0])
	}
	for addr, want := range runs[0].byServer {
		if got := runs[1].byServer[addr]; !slices.Equal(got, want) {
			t.Errorf("%v: exchanges differ between runs:\n first  %q\n second %q", addr, want, got)
		}
	}
	if len(runs[1].byServer) != len(runs[0].byServer) {
		t.Errorf("runs reached %d and %d servers", len(runs[0].byServer), len(runs[1].byServer))
	}
}
