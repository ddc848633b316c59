package measure

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"govdns/internal/dnsname"
)

// The set-valued helpers of DomainResult work on small slices; these
// are their definitions with explicit sets, kept as the reference.

func refChildNS(r *DomainResult) []dnsname.Name {
	seen := make(map[dnsname.Name]bool)
	var out []dnsname.Name
	for i := range r.Servers {
		if !r.Servers[i].Answered() {
			continue
		}
		for _, host := range r.Servers[i].NS {
			if !seen[host] {
				seen[host] = true
				out = append(out, host)
			}
		}
	}
	slices.SortFunc(out, dnsname.Compare)
	return out
}

func refNSCount(r *DomainResult) int {
	seen := make(map[dnsname.Name]bool)
	for _, h := range r.ParentNS {
		seen[h] = true
	}
	for _, h := range refChildNS(r) {
		seen[h] = true
	}
	return len(seen)
}

func refDefectiveServerHosts(r *DomainResult) []dnsname.Name {
	answered := make(map[dnsname.Name]bool)
	for i := range r.Servers {
		if r.Servers[i].Answered() {
			answered[r.Servers[i].Host] = true
		}
	}
	var out []dnsname.Name
	for _, host := range r.ParentNS {
		if !answered[host] {
			out = append(out, host)
		}
	}
	return out
}

func refAllAddrs(r *DomainResult) []netip.Addr {
	seen := make(map[netip.Addr]bool)
	var out []netip.Addr
	for _, addrs := range r.Addrs {
		for _, a := range addrs {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	slices.SortFunc(out, netip.Addr.Compare)
	return out
}

// randomResult draws hosts and addresses from small pools so that
// repeats — across servers, between P and C, within P — are the rule.
func randomResult(rng *rand.Rand) *DomainResult {
	hosts := []dnsname.Name{"ns1.x.gov.br.", "ns2.x.gov.br.", "a.hoster.net.", "b.hoster.net.", "ns", "z.example.com."}
	pick := func(n int) []dnsname.Name {
		out := make([]dnsname.Name, rng.Intn(n+1))
		for i := range out {
			out[i] = hosts[rng.Intn(len(hosts))]
		}
		return out
	}
	r := &DomainResult{Domain: "x.gov.br.", ParentResponded: rng.Intn(8) > 0, ParentNS: pick(4), Addrs: map[dnsname.Name][]netip.Addr{}}
	for _, host := range append(pick(3), r.ParentNS...) {
		var addrs []netip.Addr
		for k := rng.Intn(3); k > 0; k-- {
			addrs = append(addrs, netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(5))}))
		}
		r.Addrs[host] = addrs
		for _, a := range addrs {
			r.Servers = append(r.Servers, ServerResponse{
				Host: host, Addr: a, OK: rng.Intn(4) > 0, Authoritative: rng.Intn(4) > 0, NS: pick(4),
			})
		}
	}
	return r
}

func TestResultSetHelpersMatchTheirDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		r := randomResult(rng)
		if got, want := r.ChildNS(), refChildNS(r); !slices.Equal(got, want) {
			t.Fatalf("ChildNS = %v, want %v\n%+v", got, want, r)
		}
		if got, want := r.NSCount(), refNSCount(r); got != want {
			t.Fatalf("NSCount = %d, want %d\n%+v", got, want, r)
		}
		defective := refDefectiveServerHosts(r)
		if got := r.DefectiveServerHosts(); !slices.Equal(got, defective) {
			t.Fatalf("DefectiveServerHosts = %v, want %v\n%+v", got, defective, r)
		}
		if got, want := r.HasDefect(), r.HasData() && len(defective) > 0; got != want {
			t.Fatalf("HasDefect = %v, want %v\n%+v", got, want, r)
		}
		if got, want := r.PartiallyDefective(), r.HasData() && len(defective) > 0 && r.Responsive(); got != want {
			t.Fatalf("PartiallyDefective = %v, want %v\n%+v", got, want, r)
		}
		if got, want := r.AllAddrs(), refAllAddrs(r); !slices.Equal(got, want) {
			t.Fatalf("AllAddrs = %v, want %v\n%+v", got, want, r)
		}
		want := ClassHealthy
		switch {
		case !r.ParentResponded:
			want = ClassWalkFailure
		case len(r.ParentNS) == 0:
			want = ClassNoDelegation
		case !r.Responsive():
			want = ClassFullyLame
		case len(defective) > 0:
			want = ClassPartiallyLame
		}
		if got := r.Classify(); got != want {
			t.Fatalf("Classify = %v, want %v\n%+v", got, want, r)
		}
	}
}

func TestClassifyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	var results []*DomainResult
	for i := 0; i < 200; i++ {
		results = append(results, randomResult(rng))
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, r := range results {
			r.Classify()
		}
	})
	if allocs != 0 {
		t.Errorf("Classify of %d results allocates %v times, want 0", len(results), allocs)
	}
}
