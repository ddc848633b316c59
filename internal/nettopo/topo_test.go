package nettopo

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestIPv4Conversions(t *testing.T) {
	cases := []struct {
		v uint32
		s string
	}{
		{0x01020304, "1.2.3.4"},
		{0xC0000201, "192.0.2.1"},
		{0x0A000001, "10.0.0.1"},
	}
	for _, tc := range cases {
		if got := IPv4(tc.v); got != netip.MustParseAddr(tc.s) {
			t.Errorf("IPv4(%#x) = %v, want %s", tc.v, got, tc.s)
		}
		if got := IPv4Value(netip.MustParseAddr(tc.s)); got != tc.v {
			t.Errorf("IPv4Value(%s) = %#x, want %#x", tc.s, got, tc.v)
		}
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(v uint32) bool { return IPv4Value(IPv4(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefix24(t *testing.T) {
	a := netip.MustParseAddr("203.0.113.77")
	b := netip.MustParseAddr("203.0.113.200")
	c := netip.MustParseAddr("203.0.114.77")
	if Prefix24(a) != Prefix24(b) {
		t.Error("addresses in the same /24 got different prefixes")
	}
	if Prefix24(a) == Prefix24(c) {
		t.Error("addresses in different /24s got the same prefix")
	}
}

func TestAddASIdempotent(t *testing.T) {
	topo := NewTopology()
	a1 := topo.AddAS(65001, "Example Org")
	a2 := topo.AddAS(65001, "Example Org Again")
	if a1 != a2 {
		t.Error("AddAS created a second AS for the same ASN")
	}
	if len(topo.ases) != 1 {
		t.Errorf("%d ASes, want 1", len(topo.ases))
	}
}

func TestAllocIPUnknownAS(t *testing.T) {
	topo := NewTopology()
	if _, err := topo.AllocIP(99); err == nil {
		t.Error("AllocIP on unregistered AS succeeded")
	}
}

func TestAllocIPSame24ByDefault(t *testing.T) {
	topo := NewTopology()
	topo.AddAS(65001, "Org")
	a, err := topo.AllocIP(65001)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topo.AllocIP(65001)
	if err != nil {
		t.Fatal(err)
	}
	if Prefix24(a) != Prefix24(b) {
		t.Errorf("sequential allocations %v, %v not in same /24", a, b)
	}
	if a == b {
		t.Error("duplicate address allocated")
	}
}

func TestAllocIPNew24(t *testing.T) {
	topo := NewTopology()
	topo.AddAS(65001, "Org")
	a, _ := topo.AllocIP(65001)
	b, err := topo.AllocIPNew24(65001)
	if err != nil {
		t.Fatal(err)
	}
	if Prefix24(a) == Prefix24(b) {
		t.Errorf("AllocIPNew24 stayed in the same /24: %v, %v", a, b)
	}
}

func TestAllocSkipsDotZero(t *testing.T) {
	topo := NewTopology()
	topo.AddAS(65001, "Org")
	for i := 0; i < 600; i++ {
		addr, err := topo.AllocIPNew24(65001)
		if err != nil {
			t.Fatal(err)
		}
		if addr.As4()[3] == 0 {
			t.Fatalf("allocated a .0 address: %v", addr)
		}
	}
}

func TestAllocationsUniqueAcrossASes(t *testing.T) {
	topo := NewTopology()
	seen := make(map[netip.Addr]bool)
	for asn := uint32(1); asn <= 20; asn++ {
		topo.AddAS(asn, "Org")
		for i := 0; i < 500; i++ {
			addr, err := topo.AllocIP(asn)
			if err != nil {
				t.Fatal(err)
			}
			if seen[addr] {
				t.Fatalf("address %v allocated twice", addr)
			}
			seen[addr] = true
		}
	}
}

func TestASGrowsBlocksWhenExhausted(t *testing.T) {
	topo := NewTopology()
	topo.AddAS(65001, "Org")
	// Force >256 distinct /24s: a /16 has 256, so this spills into a
	// second /16 block.
	prefixes := make(map[uint32]bool)
	for i := 0; i < 300; i++ {
		addr, err := topo.AllocIPNew24(65001)
		if err != nil {
			t.Fatal(err)
		}
		prefixes[Prefix24(addr)] = true
	}
	if len(prefixes) != 300 {
		t.Errorf("got %d distinct /24s, want 300", len(prefixes))
	}
	as := topo.ases[65001]
	if len(as.blocks) < 2 {
		t.Errorf("AS has %d blocks, want >=2", len(as.blocks))
	}
}

func TestRangesSortedAndDisjoint(t *testing.T) {
	topo := NewTopology()
	for asn := uint32(1); asn <= 10; asn++ {
		topo.AddAS(asn, "Org")
		if _, err := topo.AllocIP(asn); err != nil {
			t.Fatal(err)
		}
	}
	ranges := topo.Ranges()
	if len(ranges) < 10 {
		t.Fatalf("Ranges returned %d entries", len(ranges))
	}
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Start <= ranges[i-1].End {
			t.Fatalf("ranges overlap or unsorted: %+v then %+v", ranges[i-1], ranges[i])
		}
	}
}
