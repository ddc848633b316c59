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
	"errors"
	"flag"
	"fmt"
	"io"
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "dnsserver: %v\n", err)
		os.Exit(1)
	}
}

// run serves until ctx is done.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // the telemetry endpoint serves until run returns
	fs := flag.NewFlagSet("dnsserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	zonePath := fs.String("zone", "", "zone file to serve (this or -xfr is required)")
	origin := fs.String("origin", "", "zone origin (required)")
	listen := fs.String("listen", "127.0.0.1:5353", "listen address (UDP and TCP)")
	xfr := fs.String("xfr", "", "bootstrap the zone over AXFR from this primary (host:port) instead of -zone")
	tcp := fs.Bool("tcp", true, "also serve TCP (framed queries, pipelining, AXFR)")
	cache := fs.Bool("cache", true, "enable the TTL-aware response cache")
	ednsBuf := fs.Uint("edns-buf", uint(dnswire.DefaultEDNSBufSize), "advertised EDNS0 UDP payload cap")
	tcpIdle := fs.Duration("tcp-idle", authserver.DefaultTCPIdleTimeout, "idle timeout for TCP connections")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /healthz, /readyz, and pprof on this address, e.g. :9090")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *origin == "" || (*zonePath == "") == (*xfr == "") {
		fs.Usage()
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
	if bound, err := obs.ServeEndpoint(ctx, *metricsAddr, reg, health); err != nil {
		return fmt.Errorf("-metrics: %w", err)
	} else if bound != nil {
		fmt.Fprintf(stderr, "telemetry on http://%s/metrics /healthz /readyz (pprof under /debug/pprof/)\n", bound)
	}

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
			fmt.Fprintf(stderr, "warning: %v\n", problem)
		}
		server.AddZone(z)
	default:
		xfrCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err := authserver.SyncZone(xfrCtx, *xfr, originName, server)
		cancel()
		if err != nil {
			return fmt.Errorf("AXFR from %s: %w", *xfr, err)
		}
		fmt.Fprintf(stdout, "zone %s transferred from primary %s\n", originName, *xfr)
	}

	udp, err := authserver.ListenUDP(*listen, server)
	if err != nil {
		return err
	}
	transports := "udp"
	var tcpSrv *authserver.TCPServer
	if *tcp {
		// The UDP socket's address, so a -listen port of 0 puts both
		// transports on the one port the serving line names.
		tcpSrv, err = authserver.ListenTCPIdle(udp.Addr().String(), server, *tcpIdle)
		if err != nil {
			_ = udp.Close()
			return err
		}
		transports = "udp+tcp"
	}
	z, _ := server.ZoneByOrigin(originName)
	fmt.Fprintf(stdout, "serving %s (%d records) on %s (%s, edns-buf %d, cache %v)\n",
		originName, z.Len(), udp.Addr(), transports, *ednsBuf, *cache)
	health.SetReady(true)

	<-ctx.Done()
	fmt.Fprintln(stdout, "shutting down")
	if tcpSrv != nil {
		if err := tcpSrv.Close(); err != nil {
			return err
		}
	}
	return udp.Close()
}
