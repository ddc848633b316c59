package measure

// End-to-end differential for the real-socket path: the serial scanner
// runs over the miniworld's servers through the in-memory simulated
// network — the reference, computed in-process — and through
// udpx.BatchTransport against the same authserver instances on
// loopback UDP sockets, and the scan digests must be bit-identical,
// clean and under a content-keyed chaos profile. Everything the socket
// path adds (kernel buffers, shared sockets, sendmmsg/recvmmsg
// batching, QID rewriting, the demux table, per-exchange deadline
// timers, pooled buffers recycled through ReleaseResponse, the UDP
// serving loop's buffer reuse) must be invisible to the measurement.

import (
	"net/netip"
	"testing"
	"time"

	"govdns/internal/authserver"
	"govdns/internal/chaos"
	"govdns/internal/miniworld"
)

// serveWorldOverride stands every miniworld server up on a loopback
// UDP socket and returns the simulated-IP → bound-socket override map
// the batched transport addresses servers through.
func serveWorldOverride(t *testing.T, w *miniworld.World) map[netip.Addr]netip.AddrPort {
	t.Helper()
	override := make(map[netip.Addr]netip.AddrPort)
	for _, ep := range w.ServerEndpoints() {
		if _, dup := override[ep.Addr]; dup {
			continue
		}
		us, err := authserver.ListenUDP("127.0.0.1:0", ep.Server)
		if err != nil {
			t.Fatalf("listen for %s at %s: %v", ep.Hostname, ep.Addr, err)
		}
		t.Cleanup(func() { _ = us.Close() })
		ap, err := netip.ParseAddrPort(us.Addr().String())
		if err != nil {
			t.Fatalf("parse bound addr %s: %v", us.Addr(), err)
		}
		override[ep.Addr] = ap
	}
	return override
}

// e2eDeadline leaves loopback exchanges far from scheduling noise while
// keeping the dead-server probes (which pay it in full) cheap enough for
// tier-1.
const e2eDeadline = 100 * time.Millisecond

// udpPaths are the batched transport's two I/O paths: the OS
// sendmmsg/recvmmsg batches and the portable per-datagram loops.
var udpPaths = []struct {
	name     string
	portable bool
}{
	{"os", false},
	{"portable", true},
}

// TestScanDigestRealUDPServing is the clean half of the real-socket
// differential: the batched scan over real sockets must reproduce the
// simnet scan of the same world, on both I/O paths.
func TestScanDigestRealUDPServing(t *testing.T) {
	w := miniworld.Build()
	domains := miniworld.Domains()
	override := serveWorldOverride(t, w)

	simClean := scanTuned(t, w.Net, w.Roots, domains, 1, 1, true, e2eDeadline, 1)
	want := DigestHex(simClean)

	for _, tc := range udpPaths {
		t.Run(tc.name, func(t *testing.T) {
			batchClean := scanTuned(t, batchOver(t, override, tc.portable), w.Roots, domains, 1, 1, true, e2eDeadline, 1)
			if got := DigestHex(batchClean); got != want {
				t.Errorf("clean scan digest over real UDP sockets = %s, want simnet's %s", got, want)
				for i, r := range batchClean {
					t.Logf("  udp %s: class=%s err=%q | sim err=%q",
						r.Domain, r.Classify(), r.Err, simClean[i].Err)
				}
			}
		})
	}
}

// TestScanDigestBatchVsDial is the chaos half of the real-socket
// differential: under the content-keyed chaos profile the batched scan
// over real sockets must reproduce the simnet scan, on both I/O paths.
// The name dates from when the reference was a dial-per-exchange UDP
// client; the reference is now the simnet scan, computed in-process.
func TestScanDigestBatchVsDial(t *testing.T) {
	w := miniworld.Build()
	domains := miniworld.Domains()
	override := serveWorldOverride(t, w)
	rules := w.ChaosRules(batchChaosProfile())

	simTr := chaos.Wrap(w.Net, batchChaosSeed, rules...)
	simChaos := scanTuned(t, simTr, w.Roots, domains, 1, 1, true, e2eDeadline, 1)
	if simTr.Stats().Total() == 0 {
		t.Fatal("chaos injected nothing on the simnet run; the test is vacuous")
	}
	want := DigestHex(simChaos)

	for _, tc := range udpPaths {
		t.Run(tc.name, func(t *testing.T) {
			batchChaosTr := chaos.Wrap(batchOver(t, override, tc.portable), batchChaosSeed, rules...)
			batchChaos := scanTuned(t, batchChaosTr, w.Roots, domains, 1, 1, true, e2eDeadline, 1)
			if batchChaosTr.Stats().Total() == 0 {
				t.Fatal("chaos injected nothing on the real-socket run; the test is vacuous")
			}
			if got := DigestHex(batchChaos); got != want {
				t.Errorf("chaos scan digest over real UDP sockets = %s, want simnet's %s", got, want)
				for i, r := range batchChaos {
					t.Logf("  udp %s: class=%s err=%q faults=%+v | sim class=%s err=%q",
						r.Domain, r.Classify(), r.Err, r.Faults,
						simChaos[i].Classify(), simChaos[i].Err)
				}
			}
		})
	}
}
