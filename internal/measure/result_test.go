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
	for _, h := range r.Addrs {
		for _, a := range h.Addrs {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	slices.SortFunc(out, netip.Addr.Compare)
	return out
}

// setAddrs sets host's addresses in r.Addrs, replacing the host's entry
// when it has one and appending one when it does not: what assigning to
// a host's key did when Addrs was a map. An appended host may leave
// Addrs out of order, which every reader of a result tolerates.
func setAddrs(r *DomainResult, host dnsname.Name, addrs []netip.Addr) {
	for i := range r.Addrs {
		if r.Addrs[i].Host == host {
			r.Addrs[i].Addrs = addrs
			return
		}
	}
	r.Addrs = append(r.Addrs, HostAddrs{Host: host, Addrs: addrs})
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
	r := &DomainResult{Domain: "x.gov.br.", ParentResponded: rng.Intn(8) > 0, ParentNS: pick(4), Addrs: []HostAddrs{}}
	for _, host := range append(pick(3), r.ParentNS...) {
		var addrs []netip.Addr
		for k := rng.Intn(3); k > 0; k-- {
			addrs = append(addrs, netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(5))}))
		}
		setAddrs(r, host, addrs)
		for _, a := range addrs {
			r.Servers = append(r.Servers, ServerResponse{
				Host: host, Addr: a, OK: rng.Intn(4) > 0, Authoritative: rng.Intn(4) > 0, NS: pick(4),
			})
		}
	}
	return r
}

// shapes tallies the cases randomResult is meant to produce, so that a
// test over its results can insist each one came up.
type shapes struct {
	repeatInServer, repeatAcrossServers, unansweredWithNS, childOnly, repeatInParent, emptyParent int
}

func (sh *shapes) add(r *DomainResult) {
	if len(r.ParentNS) == 0 {
		sh.emptyParent++
	}
	for i, host := range r.ParentNS {
		if slices.Contains(r.ParentNS[:i], host) {
			sh.repeatInParent++
		}
	}
	var seenBefore []dnsname.Name // names of earlier answered servers
	for i := range r.Servers {
		sr := &r.Servers[i]
		if !sr.Answered() {
			if len(sr.NS) > 0 {
				sh.unansweredWithNS++
			}
			continue
		}
		for j, host := range sr.NS {
			if slices.Contains(sr.NS[:j], host) {
				sh.repeatInServer++
			}
			if slices.Contains(seenBefore, host) {
				sh.repeatAcrossServers++
			}
			if !slices.Contains(r.ParentNS, host) {
				sh.childOnly++
			}
		}
		seenBefore = append(seenBefore, sr.NS...)
	}
}

func TestResultSetHelpersMatchTheirDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var seen shapes
	for i := 0; i < 2000; i++ {
		r := randomResult(rng)
		seen.add(r)
		if got, want := r.ChildNS(), refChildNS(r); !slices.Equal(got, want) {
			t.Fatalf("ChildNS = %v, want %v\n%+v", got, want, r)
		}
		// Into a buffer already holding names, with and without room
		// to spare: the prefix stays, C follows it.
		for _, spare := range []int{0, 8} {
			prefix := []dnsname.Name{"z.example.com.", "ns1.x.gov.br."}
			dst := append(make([]dnsname.Name, 0, len(prefix)+spare), prefix...)
			got := r.AppendChildNS(dst)
			if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], r.ChildNS()) {
				t.Fatalf("AppendChildNS(%v) = %v, want the prefix then %v\n%+v", prefix, got, r.ChildNS(), r)
			}
		}
		defective := refDefectiveServerHosts(r)
		if got, want := r.hasDefectiveHost(), len(defective) > 0; got != want {
			t.Fatalf("hasDefectiveHost = %v, want %v (defective hosts %v)\n%+v", got, want, defective, r)
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
	if seen.repeatInServer == 0 || seen.repeatAcrossServers == 0 || seen.unansweredWithNS == 0 ||
		seen.childOnly == 0 || seen.repeatInParent == 0 || seen.emptyParent == 0 {
		t.Fatalf("the generated results miss a case: %+v", seen)
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

func TestChildViewHelpersAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	var results []*DomainResult
	for i := 0; i < 200; i++ {
		results = append(results, randomResult(rng))
	}
	buf := make([]dnsname.Name, 0, 64)
	if allocs := testing.AllocsPerRun(10, func() {
		for _, r := range results {
			buf = r.AppendChildNS(buf[:0])
		}
	}); allocs != 0 {
		t.Errorf("AppendChildNS of %d results into a buffer with room allocates %v times, want 0", len(results), allocs)
	}
}
