package authserver

// Serving-side extension of resolver.TestWirePathAliasSafety: the UDP
// loop reuses one response buffer across packets and the codec runs on
// recycled arenas, so any state the serving tier retains past an
// exchange — cached response templates above all — must be owned
// storage. Concurrent pooled serving with bit-for-bit comparison against
// pre-computed goldens catches both data races (under -race) and alias
// corruption (under any build).

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

func TestServeWireAliasSafety(t *testing.T) {
	pool := dnswire.NewPool()
	s := New("ns1.gov.br.")
	s.AddZone(testZone(t))
	s.pool = pool
	s.SetCache(NewResponseCache())

	type probe struct {
		wire     []byte
		expected []byte
	}
	var probes []probe
	for i, q := range []struct {
		name  dnsname.Name
		qtype dnswire.Type
	}{
		{"www.gov.br.", dnswire.TypeA},
		{"gov.br.", dnswire.TypeNS},
		{"gov.br.", dnswire.TypeSOA},
		{"www.gov.br.", dnswire.TypeMX},
		{"missing.gov.br.", dnswire.TypeA},
		{"www.city.gov.br.", dnswire.TypeA},
	} {
		wire := confWire(t, q.name, q.qtype, uint16(100+i), i%2 == 0, uint16(i%2)*1232)
		resp := s.HandleWire(wire)
		if resp == nil {
			t.Fatalf("probe %d dropped", i)
		}
		probes = append(probes, probe{wire: wire, expected: resp})
	}

	// Phase 1: concurrent serving on goroutine-local reused buffers.
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, 0, 1024)
			for r := 0; r < rounds; r++ {
				for i, p := range probes {
					out, ok := s.HandleWireAppend(dst[:0], p.wire)
					if !ok {
						errCh <- fmt.Errorf("round %d probe %d dropped", r, i)
						return
					}
					if !bytes.Equal(out, p.expected) {
						errCh <- fmt.Errorf("round %d probe %d: response bytes diverged\ngot:  % x\nwant: % x",
							r, i, out, p.expected)
						return
					}
					dst = out
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := pool.Stats()
	if st.Recycles == 0 {
		t.Fatalf("pool never recycled an arena: %+v", st)
	}
	if st.Checkouts != st.Recycles+st.Discards {
		t.Fatalf("arena leak: %d checkouts vs %d recycles + %d discards",
			st.Checkouts, st.Recycles, st.Discards)
	}

	// Phase 2: rewrite every recycled arena's scratch with junk, then
	// confirm the cached templates still serve the original bytes — a
	// template aliasing arena storage would now carry 'z's.
	junk := dnswire.NewQuery(1, dnsname.MustParse(strings.Repeat("z", 60)+".example"), dnswire.TypeA)
	junkWire, err := dnswire.Encode(junk)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		arenas := make([]*dnswire.Arena, 16)
		for i := range arenas {
			arenas[i] = pool.Get()
			if _, err := arenas[i].Decode(junkWire); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range arenas {
			a.Finish()
		}
	}
	for i, p := range probes {
		out := s.HandleWire(p.wire)
		if !bytes.Equal(out, p.expected) {
			t.Errorf("probe %d changed after arena recycle:\ngot:  % x\nwant: % x",
				i, out, p.expected)
		}
	}
}
