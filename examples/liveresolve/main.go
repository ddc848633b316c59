// Liveresolve: the DNS engine over real UDP sockets. Builds the
// miniworld fixture (a hand-crafted root, two TLDs, gov.br and its
// children), serves every authoritative server on 127.0.0.1 high ports,
// and runs the iterative resolver against them — the same code path the
// simulation uses, but through the kernel's network stack.
//
//	go run ./examples/liveresolve
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/netip"
	"time"

	"govdns/internal/authserver"
	"govdns/internal/miniworld"
	"govdns/internal/resolver"
)

func main() {
	world := miniworld.Build()
	fmt.Println(world)

	// Serve each simulated server address on a real local UDP socket,
	// and point the UDP transport's port map at them.
	transport := &authserver.UDPTransport{PortOverride: make(map[netip.Addr]int)}
	opened := 0
	for _, server := range world.Servers {
		for _, addr := range serverAddrs(world, server) {
			udp, err := authserver.ListenUDP("127.0.0.1:0", server)
			if err != nil {
				log.Fatalf("listen: %v", err)
			}
			defer func() { _ = udp.Close() }()
			transport.PortOverride[addr] = udp.Addr().(*net.UDPAddr).Port
			opened++
		}
	}
	fmt.Printf("serving %d authoritative endpoints on 127.0.0.1\n\n", opened)

	// The simulated addresses route to 127.0.0.1:port via the port map;
	// the resolver itself is unchanged.
	realTransport := &loopbackTransport{inner: transport}
	client := resolver.NewClient(realTransport)
	client.Timeout = 300 * time.Millisecond
	it := resolver.NewIterator(client, world.Roots)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, domain := range miniworld.Domains() {
		deleg, err := it.Delegation(ctx, domain)
		if err != nil {
			fmt.Printf("%-24s walk failed: %v\n", domain, err)
			continue
		}
		fmt.Printf("%-24s parent=%s NS=%v\n", domain, deleg.Parent.Zone, deleg.Hosts)
	}

	// One full host resolution for good measure.
	addrs, err := it.ResolveHost(ctx, "ns1.provider.com.")
	if err != nil {
		log.Fatalf("ResolveHost: %v", err)
	}
	fmt.Printf("\nns1.provider.com. resolves to %v (over real UDP)\n", addrs)
}

// loopbackTransport maps each simulated destination address to the local
// UDP listener serving it, and blackholes everything else.
type loopbackTransport struct {
	inner *authserver.UDPTransport
}

func (t *loopbackTransport) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	port, ok := t.inner.PortOverride[server]
	if !ok {
		// Unserved address (a deliberately dead nameserver): behave
		// like a blackhole, honouring the deadline.
		<-ctx.Done()
		return nil, ctx.Err()
	}
	loop := netip.MustParseAddr("127.0.0.1")
	redirect := &authserver.UDPTransport{PortOverride: map[netip.Addr]int{loop: port}}
	return redirect.Exchange(ctx, loop, query)
}

// serverAddrs finds the simulated addresses a server is attached to.
func serverAddrs(w *miniworld.World, s *authserver.Server) []netip.Addr {
	var out []netip.Addr
	for _, addr := range allFixtureAddrs() {
		if got, ok := w.Net.ServerAt(addr); ok && got == s && !w.Net.IsBlackholed(addr) {
			// Skip servers that drop everything; leaving their ports
			// closed reproduces the lame behaviour over real UDP too.
			if got.Behavior() == authserver.BehaviorUnresponsive {
				continue
			}
			out = append(out, addr)
		}
	}
	return out
}

func allFixtureAddrs() []netip.Addr {
	return []netip.Addr{
		miniworld.RootAddr, miniworld.TLDBrAddr, miniworld.TLDComAddr,
		miniworld.GovNS1Addr, miniworld.GovNS2Addr,
		miniworld.CityNS1Addr, miniworld.CityNS2Addr,
		miniworld.LameOKAddr, miniworld.LameDeadAddr,
		miniworld.DeadAddr, miniworld.SingleAddr,
		miniworld.ProviderNS1Addr, miniworld.ProviderNS2Addr,
		miniworld.IncNS1Addr, miniworld.IncNS3Addr,
	}
}

// Interface compliance.
var _ resolver.Transport = (*loopbackTransport)(nil)
