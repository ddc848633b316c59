package resolver

import (
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/miniworld"
	"govdns/internal/trace"
)

// TestWirePathAliasSafety is the resolver-level borrow-contract
// regression test for the pooled codec path: everything the resolution
// machinery retains past an exchange — delegation records, cached zone
// server sets, host addresses, trace span labels — must be owned copies,
// not views into a codec arena. The test resolves through a dedicated
// pool, then hammers that pool so every arena used by the resolution is
// recycled and its scratch rewritten with distinctive junk; all retained
// state must survive bit-for-bit.
func TestWirePathAliasSafety(t *testing.T) {
	w := miniworld.Build()
	pool := dnswire.NewPool()
	c := NewClient(w.Net)
	c.Timeout = 20 * time.Millisecond
	c.Retries = 1
	c.WirePool = pool
	it := NewIterator(c, w.Roots)

	rec := trace.NewRecorder("city.gov.br.", 0)
	ctx, root := rec.Begin(ctxWithTimeout(t), trace.KindDomain, "city.gov.br.", nil)

	d, err := it.Delegation(ctx, "city.gov.br.")
	if err != nil {
		t.Fatalf("Delegation: %v", err)
	}
	addrs, err := it.AppendHostAddrs(ctx, nil, "ns1.city.gov.br.")
	if err != nil || len(addrs) != 1 {
		t.Fatalf("AppendHostAddrs = %v, %v", addrs, err)
	}

	// Snapshot the retained state with storage of our own, then seal the
	// trace and snapshot its span labels too.
	hostsSnap := ownNames(d.Hosts)
	var glueSnap [][]netip.Addr
	for i := range d.Hosts {
		glueSnap = append(glueSnap, slices.Clone(d.Glue(i)))
	}
	if len(slices.Concat(glueSnap...)) == 0 {
		t.Fatal("delegation carried no glue; the glue assertions are vacuous")
	}
	parentSnap := deepCopyZoneServers(&d.Parent)
	root.End(nil)
	dt := rec.Finish("", 1, "", false, false)
	if len(dt.Spans) == 0 {
		t.Fatal("no spans recorded; the trace assertions are vacuous")
	}
	labelSnap := make([]string, len(dt.Spans))
	for i, sp := range dt.Spans {
		labelSnap[i] = strings.Clone(sp.Name)
	}

	// Recycle the pool's arenas through decodes of an unrelated message
	// whose names fill the scratch with 'z's. Several arenas are held
	// open at once so the recycle reaches deeper than one slot.
	junk := dnswire.NewQuery(1, dnsname.MustParse(strings.Repeat("z", 60)+".example"), dnswire.TypeA)
	junkWire, err := dnswire.Encode(junk)
	if err != nil {
		t.Fatalf("Encode junk: %v", err)
	}
	for round := 0; round < 8; round++ {
		arenas := make([]*dnswire.Arena, 16)
		for i := range arenas {
			arenas[i] = pool.Get()
			if _, err := arenas[i].Decode(junkWire); err != nil {
				t.Fatalf("Decode junk: %v", err)
			}
		}
		for _, a := range arenas {
			a.Finish()
		}
	}
	if s := pool.Stats(); s.Recycles == 0 {
		t.Fatalf("pool never recycled an arena: %+v", s)
	}

	// Everything snapshotted above must be unaffected.
	for i, h := range d.Hosts {
		if h != hostsSnap[i] {
			t.Errorf("delegation host %d changed after arena recycle: %q != %q", i, h, hostsSnap[i])
		}
		if got := d.Glue(i); !slices.Equal(got, glueSnap[i]) {
			t.Errorf("glue of host %d changed after arena recycle: %v != %v", i, got, glueSnap[i])
		}
	}
	if d.Parent.Zone != parentSnap.Zone {
		t.Errorf("parent zone changed after arena recycle: %q != %q", d.Parent.Zone, parentSnap.Zone)
	}
	for i, sp := range dt.Spans {
		if sp.Name != labelSnap[i] {
			t.Errorf("span %d (%s) label changed after arena recycle: %q != %q",
				i, sp.Kind, sp.Name, labelSnap[i])
		}
	}

	// The caches must serve the same (intact) state on a fresh walk.
	d2, err := it.Delegation(ctxWithTimeout(t), "city.gov.br.")
	if err != nil {
		t.Fatalf("second Delegation: %v", err)
	}
	if d2.Parent.Zone != parentSnap.Zone {
		t.Errorf("cached parent zone changed: %q != %q", d2.Parent.Zone, parentSnap.Zone)
	}
	for i, h := range d2.Hosts {
		if h != hostsSnap[i] {
			t.Errorf("cached delegation host %d changed: %q != %q", i, h, hostsSnap[i])
		}
	}
	again, err := it.AppendHostAddrs(ctxWithTimeout(t), nil, "ns1.city.gov.br.")
	if err != nil || len(again) != 1 || again[0] != addrs[0] {
		t.Errorf("cached host resolution changed: %v, %v (want %v)", again, err, addrs)
	}
}

func ownNames(in []dnsname.Name) []dnsname.Name {
	out := make([]dnsname.Name, len(in))
	for i, n := range in {
		out[i] = n.Own()
	}
	return out
}
