package providers

import (
	"testing"

	"govdns/internal/dnsname"
)

func TestIdentifyByPattern(t *testing.T) {
	c := Default()
	cases := []struct {
		host string
		key  string
	}{
		{"ns-1234.awsdns-56.com.", "amazon"},
		{"ns-7.awsdns-00.co.uk.", "amazon"},
		{"ns1-03.azure-dns.com.", "azure"},
		{"ns4-205.azure-dns.info.", "azure"},
	}
	for _, tc := range cases {
		p, ok := c.Identify(dnsname.MustParse(tc.host))
		if !ok || p.Key != tc.key {
			t.Errorf("Identify(%s) = %v, %v; want %s", tc.host, p, ok, tc.key)
		}
	}
	// Near misses must not match.
	for _, host := range []string{"ns-12.awsdns.com.", "ns-x.awsdns-1.com.", "ns1.azure-dns.xyz."} {
		if p, ok := c.Identify(dnsname.MustParse(host)); ok {
			t.Errorf("Identify(%s) matched %s; want no match", host, p.Key)
		}
	}
}

func TestIdentifyByDomain(t *testing.T) {
	c := Default()
	cases := []struct {
		host string
		key  string
	}{
		{"alice.ns.cloudflare.com.", "cloudflare"},
		{"ns37.domaincontrol.com.", "godaddy"},
		{"f1g1ns1.dnspod.net.", "dnspod"},
		{"ns1.p13.dynect.net.", "dyn"},
		{"pdns1.ultradns.net.", "ultradns"},
		{"ns1.websitewelcome.com.", "websitewelcome"},
		{"ns123.hostgator.com.br.", "hostgator"},
		{"dns9.hichina.com.", "hichina"},
		{"ns1.dns-diy.net.", "dnsdiy"},
		{"ns1.digitalocean.com.", "digitalocean"},
	}
	for _, tc := range cases {
		p, ok := c.Identify(dnsname.MustParse(tc.host))
		if !ok || p.Key != tc.key {
			t.Errorf("Identify(%s) = %v, %v; want %s", tc.host, p, ok, tc.key)
		}
	}
	if _, ok := c.Identify("ns1.gov.br."); ok {
		t.Error("Identify matched a government nameserver")
	}
	// The bare provider domain itself is not a nameserver hostname.
	if _, ok := c.Identify("cloudflare.com."); ok {
		t.Error("Identify matched the bare provider domain")
	}
}

func TestGroupLabel(t *testing.T) {
	c := Default()
	cases := []struct {
		host  string
		label string
		known bool
	}{
		{"ns-99.awsdns-12.net.", "AWS DNS", true},
		{"ns2-04.azure-dns.net.", "Azure DNS", true},
		{"ns77.hostgator.com.", "Hostgator", true},
		{"betty.ns.cloudflare.com.", "cloudflare.com", true},
		{"ns1.unknownhoster.com.", "unknownhoster.com", false},
		{"ns1.some.company.com.br.", "company.com.br", false},
		{"ns1.weird-tld.xx.", "weird-tld.xx", false},
	}
	for _, tc := range cases {
		label, known := c.GroupLabel(dnsname.MustParse(tc.host))
		if label != tc.label || known != tc.known {
			t.Errorf("GroupLabel(%s) = %q, %v; want %q, %v", tc.host, label, known, tc.label, tc.known)
		}
	}
}

func TestMajorSubset(t *testing.T) {
	c := Default()
	major := c.Major()
	if len(major) != 8 {
		t.Fatalf("Major() = %d providers, want 8 (Table II)", len(major))
	}
	wantKeys := map[string]bool{
		"amazon": true, "azure": true, "cloudflare": true, "dnspod": true,
		"dnsmadeeasy": true, "dyn": true, "godaddy": true, "ultradns": true,
	}
	for _, p := range major {
		if !wantKeys[p.Key] {
			t.Errorf("unexpected major provider %s", p.Key)
		}
	}
}

func TestCatalogKeysUnique(t *testing.T) {
	c := Default()
	seen := make(map[string]bool)
	for _, p := range c.providers {
		if seen[p.Key] {
			t.Errorf("duplicate provider key %s", p.Key)
		}
		seen[p.Key] = true
	}
}

// matches is Identify's definition for one provider: its pattern
// matches the host, or one of its domains is a strict ancestor of it.
func matches(p *Provider, host dnsname.Name) bool {
	if p.pattern != nil && p.pattern.MatchString(string(host)) {
		return true
	}
	for _, d := range p.domains {
		if host != d && host.IsSubdomainOf(d) {
			return true
		}
	}
	return false
}

// TestIdentifyIsFirstMatchInCatalogOrder checks the ancestor-walk
// Identify against its definition — the first provider, in catalog
// order, that matches the host — on hosts that hit a regexp, a
// provider domain at several depths, a provider domain itself (not a
// strict subdomain), several providers at once, and nothing.
func TestIdentifyIsFirstMatchInCatalogOrder(t *testing.T) {
	c := Default()
	hosts := []dnsname.Name{
		"ns-12.awsdns-3.com.", "ns-12.awsdns-3.co.uk.", "ns-x.awsdns-3.com.",
		"ns1-07.azure-dns.com.", "other.azure-dns.com.", "azure-dns.com.",
		"a.awsdns-hostmaster.amazon.com.", "awsdns-hostmaster.amazon.com.",
		"tom.cloudflare.com.", "deep.er.ns.cloudflare.com.", "cloudflare.com.",
		"ns1.hostgator.com.br.", "ns1.hostgator.com.", "ns1.xincache.cn.",
		"ns1.example.gov.br.", "com.", ".", "", "ns..cloudflare.com.",
		// Not canonical (no trailing dot): no match, and the walk ends.
		"com", "ns1.foo.com", "tom.cloudflare.com",
	}
	for _, host := range hosts {
		var want *Provider
		for _, p := range c.providers {
			if matches(p, host) {
				want = p
				break
			}
		}
		got, ok := c.Identify(host)
		if got != want || ok != (want != nil) {
			t.Errorf("Identify(%q) = %v, %v; first match in catalog order is %v", host, got, ok, want)
		}
	}
}
