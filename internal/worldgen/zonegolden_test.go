package worldgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/netip"
	"slices"
	"testing"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/zone"
)

// TestWorldZonesGolden pins every zone the built world serves: for each
// server (by address) and each zone it hosts (canonical origin order),
// every RRset in the order an answer carries its records. A zone layout
// change that reorders an RRset, drops or adds a record, or moves a
// zone between servers moves the digest.
func TestWorldZonesGolden(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{42, "14fd6dad6e22b36d68fdd36f590ec0e661c7c6286b8d7a6e44a166f390894a61"},
		{7, "e5fdbd568c5eec7f7ec11200997667bd6bcaaae52f012d9dd8f1a47a4800a42d"},
	} {
		a := Build(Generate(Config{Seed: tc.seed, Scale: 0.01}))
		if got := worldZonesDigest(a); got != tc.want {
			t.Errorf("seed %d: world zones digest %s, want %s", tc.seed, got, tc.want)
		}
	}
}

func worldZonesDigest(a *Active) string {
	addrs := make([]netip.Addr, 0, len(a.servers))
	for addr := range a.servers {
		addrs = append(addrs, addr)
	}
	slices.SortFunc(addrs, netip.Addr.Compare)
	h := sha256.New()
	for _, addr := range addrs {
		s := a.servers[addr]
		origins := s.Zones()
		slices.SortFunc(origins, dnsname.Compare)
		for _, origin := range origins {
			z, _ := s.ZoneByOrigin(origin)
			fmt.Fprintf(h, "zone %s %s\n", addr, origin)
			writeRRsets(h, z)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeRRsets writes z's RRsets, each once, in Lookup's order.
func writeRRsets(h hash.Hash, z *zone.Zone) {
	type key struct {
		name  dnsname.Name
		rtype dnswire.Type
	}
	seen := map[key]bool{}
	for _, rr := range z.Records() {
		k := key{rr.Name, rr.Type()}
		if seen[k] {
			continue
		}
		seen[k] = true
		for _, r := range z.Lookup(k.name, k.rtype) {
			fmt.Fprintf(h, "%s %d %s %s\n", r.Name, r.TTL, r.Type(), r.Data)
		}
	}
}
