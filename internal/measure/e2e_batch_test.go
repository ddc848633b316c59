package measure

// The batched UDP transport under the rest of the e2e suite: the
// adapter that gives it simnet's failure semantics, the content-keyed
// chaos profile the real-socket differentials share, a kill/checkpoint/
// resume round trip over real sockets, and the error text of a server
// that never answers.

import (
	"context"
	"fmt"
	"net/netip"
	"testing"

	"govdns/internal/chaos"
	"govdns/internal/dnsname"
	"govdns/internal/miniworld"
	"govdns/internal/resolver"
	"govdns/internal/simnet"
	"govdns/internal/udpx"
)

// normalizedBatch adapts udpx.BatchTransport to simnet's failure
// semantics so error *text* — which feeds the digest — matches exactly:
// any transport-level failure blocks until the context expires and then
// reports simnet's dropped-packet error byte for byte, and addresses
// with no serving socket behave like simnet blackholes. Buffer releases
// forward to the pooled transport.
type normalizedBatch struct {
	inner    *udpx.BatchTransport
	override map[netip.Addr]netip.AddrPort
}

func (n *normalizedBatch) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	if _, ok := n.override[server]; !ok {
		<-ctx.Done()
		return nil, fmt.Errorf("%w: %v", simnet.ErrDropped, ctx.Err())
	}
	resp, err := n.inner.Exchange(ctx, server, query)
	if err != nil {
		<-ctx.Done()
		return nil, fmt.Errorf("%w: %v", simnet.ErrDropped, ctx.Err())
	}
	return resp, nil
}

func (n *normalizedBatch) ReleaseResponse(buf []byte) { n.inner.ReleaseResponse(buf) }

var _ resolver.ResponseReleaser = (*normalizedBatch)(nil)

// batchOver builds a normalized batch transport over an
// already-standing override map. portable forces the per-datagram
// syscall loops so both I/O paths face the differential.
func batchOver(t *testing.T, override map[netip.Addr]netip.AddrPort, portable bool) *normalizedBatch {
	t.Helper()
	tr, err := udpx.New(udpx.Config{
		AddrOverride: override,
		Portable:     portable,
		// The resolver's attempt context carries the real deadline; the
		// transport's own timeout is the backstop right behind it.
		Timeout: 2 * e2eDeadline,
	})
	if err != nil {
		t.Fatalf("udpx.New: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return &normalizedBatch{inner: tr, override: override}
}

// batchChaosProfile is the real-socket suites' content-keyed fault
// schedule: timing-independent classes only, so under a serial scan the
// draw sequence — and each damaged response — is a pure function of the
// query stream every transport shares.
func batchChaosProfile() map[dnsname.Name][]chaos.Rule {
	return map[dnsname.Name][]chaos.Rule{
		"ns1.city.gov.br.":   {chaos.Persistent(chaos.Truncate, 1)},
		"ns2.city.gov.br.":   {chaos.Persistent(chaos.CorruptQID, 1)},
		"ns1.single.gov.br.": {chaos.Persistent(chaos.Drop, 1)},
		"ns1.provider.com.":  {chaos.Persistent(chaos.FlipRCode, 1)},
	}
}

const batchChaosSeed = 11

// batchStreamScanner is streamScanner at the e2e deadline: fresh client
// and iterator per run (no resolver cache leaks across the kill),
// adaptive ordering off, serial schedule.
func batchStreamScanner(tr resolver.Transport, roots []netip.Addr) *Scanner {
	client := resolver.NewClient(tr)
	client.Timeout = e2eDeadline
	client.Retries = 0
	it := resolver.NewIterator(client, roots)
	it.AdaptiveOrder = false
	s := NewScanner(it)
	s.Concurrency = 1
	s.PerDomainParallelism = 1
	return s
}

// TestScanStreamKillResumeBatchUDP runs the batched transport under the
// checkpoint pipeline. A streamed
// scan over real sockets is killed mid-flight and resumed from its
// checkpoint, and the merged archive must be bit-identical to the
// uninterrupted batched run — clean and under the content-keyed chaos
// profile (fresh deterministic chaos wrap per scanner, shared batch
// transport and servers underneath).
func TestScanStreamKillResumeBatchUDP(t *testing.T) {
	w := miniworld.Build()
	domains := miniworld.Domains()
	override := serveWorldOverride(t, w)
	batch := batchOver(t, override, false)

	t.Run("clean", func(t *testing.T) {
		ref := scanTuned(t, batch, w.Roots, domains, 1, 1, false, e2eDeadline, 0)
		killResumeRoundTrip(t, domains,
			func() *Scanner { return batchStreamScanner(batch, w.Roots) },
			3, canonicalJSONL(t, ref), DigestHex(ref))
	})

	t.Run("chaos", func(t *testing.T) {
		rules := w.ChaosRules(batchChaosProfile())
		refTr := chaos.Wrap(batch, batchChaosSeed, rules...)
		ref := scanTuned(t, refTr, w.Roots, domains, 1, 1, false, e2eDeadline, 0)
		if refTr.Stats().Total() == 0 {
			t.Fatal("chaos injected nothing on the reference run; the test is vacuous")
		}
		killResumeRoundTrip(t, domains,
			func() *Scanner {
				return batchStreamScanner(chaos.Wrap(batch, batchChaosSeed, rules...), w.Roots)
			},
			3, canonicalJSONL(t, ref), DigestHex(ref))
	})
}

// TestBatchSilentServerErr pins the error text a scan records for a
// server that never answers over the batched transport, unnormalized.
// The resolver's attempt deadline is enforced there by the exchange's
// own timer in udpx rather than by a timer on the context, so that
// timer must never fire before the deadline and must report its expiry as the context
// would: as a timeout the attempt retries and the walk treats as
// transient, worded as every other transport's expired attempt.
func TestBatchSilentServerErr(t *testing.T) {
	w := miniworld.Build()
	tr, err := udpx.New(udpx.Config{AddrOverride: serveWorldOverride(t, w)})
	if err != nil {
		t.Fatalf("udpx.New: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })

	const retries = 1
	rs := scanTuned(t, tr, w.Roots, []dnsname.Name{"lame.gov.br."}, 1, 1, false, e2eDeadline, retries)
	want := map[netip.Addr]string{
		miniworld.LameOKAddr: "",
		miniworld.LameDeadAddr: fmt.Sprintf("resolver: query timed out: lame.gov.br. NS @%s after %d attempts: "+
			"context deadline exceeded: attempt deadline: context deadline exceeded", miniworld.LameDeadAddr, 1+retries),
	}
	r := rs[0]
	if len(r.Servers) != len(want) {
		t.Fatalf("lame.gov.br. probed %d servers, want %d: %+v", len(r.Servers), len(want), r.Servers)
	}
	for _, sr := range r.Servers {
		if got, ok := want[sr.Addr]; !ok || sr.Err != got {
			t.Errorf("server %s (%s): Err = %q, want %q", sr.Host, sr.Addr, sr.Err, got)
		}
	}
	if st := tr.Stats(); st.Timeouts == 0 {
		t.Errorf("no transport timeouts recorded; the silent server's attempts ended some other way: %+v", st)
	}
}
