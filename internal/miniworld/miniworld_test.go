package miniworld

import (
	"testing"

	"govdns/internal/authserver"
	"govdns/internal/dnsname"
)

func mustName(s string) dnsname.Name { return dnsname.MustParse(s) }

func TestBuildStructure(t *testing.T) {
	w := Build()
	if len(w.Roots) != 1 || w.Roots[0] != RootAddr {
		t.Errorf("Roots = %v", w.Roots)
	}
	if w.Net.NumServers() == 0 {
		t.Fatal("no servers attached")
	}
	// Each fixture server hostname resolves to a live server object.
	for _, host := range []string{
		"a.root-servers.net.", "a.dns.br.", "a.gtld-servers.com.",
		"ns1.gov.br.", "ns1.city.gov.br.", "ns1.provider.com.",
	} {
		if _, ok := w.Servers[mustName(host)]; !ok {
			t.Errorf("server %s missing", host)
		}
	}
	// The deliberately dead servers advertise the unresponsive behavior.
	for _, host := range []string{"ns2.lame.gov.br.", "ns1.dead.gov.br."} {
		s, ok := w.Servers[mustName(host)]
		if !ok {
			t.Fatalf("server %s missing", host)
		}
		if s.Behavior() != authserver.BehaviorUnresponsive {
			t.Errorf("%s behavior = %v", host, s.Behavior())
		}
	}
	if len(Domains()) != 7 {
		t.Errorf("Domains() = %d, want 7 fixture children", len(Domains()))
	}
}
