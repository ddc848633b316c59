// Command dnsserver loads a zone file and serves it authoritatively over
// real UDP and TCP — the standalone nameserver built on the same engine
// the simulation uses. Query it with any stub resolver:
//
//	dnsserver -zone data/gov.br.zone -origin gov.br -listen 127.0.0.1:5353
//	dig @127.0.0.1 -p 5353 www.gov.br A
//	dig @127.0.0.1 -p 5353 +tcp gov.br AXFR
//
// A secondary bootstraps its zone over AXFR from a running primary
// instead of a zone file:
//
//	dnsserver -origin gov.br -xfr 127.0.0.1:5353 -listen 127.0.0.1:5354
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"govdns/internal/authserver"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/obs"
	"govdns/internal/zone"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dnsserver: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	zonePath := flag.String("zone", "", "zone file to serve (this or -xfr is required)")
	origin := flag.String("origin", "", "zone origin (required)")
	listen := flag.String("listen", "127.0.0.1:5353", "listen address (UDP and TCP)")
	xfr := flag.String("xfr", "", "bootstrap the zone over AXFR from this primary (host:port) instead of -zone")
	tcp := flag.Bool("tcp", true, "also serve TCP (framed queries, pipelining, AXFR)")
	cache := flag.Bool("cache", true, "enable the TTL-aware response cache")
	ednsBuf := flag.Uint("edns-buf", uint(dnswire.DefaultEDNSBufSize), "advertised EDNS0 UDP payload cap")
	tcpIdle := flag.Duration("tcp-idle", authserver.DefaultTCPIdleTimeout, "idle timeout for TCP connections")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /healthz, /readyz, and pprof on this address, e.g. :9090")
	flag.Parse()

	if *origin == "" || (*zonePath == "") == (*xfr == "") {
		flag.Usage()
		return fmt.Errorf("-origin and exactly one of -zone / -xfr are required")
	}
	originName, err := dnsname.Parse(*origin)
	if err != nil {
		return fmt.Errorf("bad origin: %w", err)
	}

	server := authserver.New(originName.MustPrepend("ns1"))
	server.SetEDNSBufSize(uint16(min(*ednsBuf, 0xFFFF)))
	reg := obs.NewRegistry()
	if *cache {
		rc := authserver.NewResponseCache()
		rc.AttachRegistry(reg)
		server.SetCache(rc)
	}

	// Readiness flips on once the zone is loaded and the listeners are
	// up; liveness is process-up (a wedged zone transfer never gets
	// here, so the probe surface reports it as not-ready, not not-live).
	health := obs.NewHealth()
	obs.ServeEndpoint(*metricsAddr, reg, health)

	switch {
	case *zonePath != "":
		f, err := os.Open(*zonePath)
		if err != nil {
			return err
		}
		z, err := zone.ParseFile(f, originName)
		closeErr := f.Close()
		if err != nil {
			return fmt.Errorf("parsing %s: %w", *zonePath, err)
		}
		if closeErr != nil {
			return closeErr
		}
		for _, problem := range z.Validate() {
			fmt.Fprintf(os.Stderr, "warning: %v\n", problem)
		}
		server.AddZone(z)
	default:
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := authserver.SyncZone(ctx, *xfr, originName, server)
		cancel()
		if err != nil {
			return fmt.Errorf("AXFR from %s: %w", *xfr, err)
		}
		fmt.Printf("zone %s transferred from primary %s\n", originName, *xfr)
	}

	udp, err := authserver.ListenUDP(*listen, server)
	if err != nil {
		return err
	}
	transports := "udp"
	var tcpSrv *authserver.TCPServer
	if *tcp {
		tcpSrv, err = authserver.ListenTCPIdle(*listen, server, *tcpIdle)
		if err != nil {
			_ = udp.Close()
			return err
		}
		transports = "udp+tcp"
	}
	z, _ := server.ZoneByOrigin(originName)
	fmt.Printf("serving %s (%d records) on %s (%s, edns-buf %d, cache %v)\n",
		originName, z.Len(), udp.Addr(), transports, *ednsBuf, *cache)
	health.SetReady(true)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("shutting down")
	if tcpSrv != nil {
		if err := tcpSrv.Close(); err != nil {
			return err
		}
	}
	return udp.Close()
}
