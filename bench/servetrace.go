package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"time"
)

// roundTrips times n exchanges with one query in flight.
func roundTrips(n int, exchange func(i int) error) (float64, error) {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := exchange(i); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	sort.Float64s(us)
	return percentile(us, 50), nil
}

// pingPong measures the serving tier's round trip with nothing else in
// flight, over each transport, on the hottest cached template.
func (e *serveEnv) pingPong() (udpUS, tcpUS float64, err error) {
	const n = 2000
	query := append([]byte(nil), e.tmpl[0].query...)
	uc, err := net.DialUDP("udp", nil, e.udp.Addr().(*net.UDPAddr))
	if err != nil {
		return 0, 0, err
	}
	defer uc.Close()
	buf := make([]byte, 4096)
	if udpUS, err = roundTrips(n, func(i int) error {
		binary.BigEndian.PutUint16(query, uint16(i))
		if _, err := uc.Write(query); err != nil {
			return err
		}
		_ = uc.SetReadDeadline(time.Now().Add(lateLimit))
		_, err := uc.Read(buf)
		return err
	}); err != nil {
		return 0, 0, fmt.Errorf("udp round trip: %w", err)
	}
	tc, err := net.Dial("tcp", e.tcp.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer tc.Close()
	rd := bufio.NewReader(tc)
	frame := make([]byte, 2+len(query))
	binary.BigEndian.PutUint16(frame, uint16(len(query)))
	copy(frame[2:], query)
	if tcpUS, err = roundTrips(n, func(i int) error {
		binary.BigEndian.PutUint16(frame[2:], uint16(i))
		if _, err := tc.Write(frame); err != nil {
			return err
		}
		_ = tc.SetReadDeadline(time.Now().Add(lateLimit))
		var err error
		buf, err = readFrame(rd, buf)
		return err
	}); err != nil {
		return 0, 0, fmt.Errorf("tcp round trip: %w", err)
	}
	return udpUS, tcpUS, nil
}

func runServeTraced(cfg runConfig) (*report, error) {
	rep := newReport(cfg.workload, perLayer)
	e, err := setupServe(cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()
	rep.set("worldgen.generate_ms", e.w.genMS, "worldgen.Generate, once")
	rep.set("worldgen.build_ms", e.w.buildMS, "worldgen.Build, once")

	// The same phases twice, half the measuring time each: spans off,
	// then on.
	plain, err := e.run(rep, cfg.seed, cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	log := newSpanLog()
	traced, err := e.run(rep, cfg.seed, cfg.seconds/2, log)
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(cfg.outDir, cfg.workload+".trace.jsonl")
	written, err := log.writeJSONL(tracePath)
	if err != nil {
		return nil, err
	}
	rep.infof("seed=%d server=%s zones=%d; the first %d of %d spans (due to received, sent to received) in %s",
		cfg.seed, e.addr, len(e.origins), written, len(log.spans), tracePath)
	rep.set("trace.overhead_share", 1-median(traced.closed.rates)/median(plain.closed.rates),
		"1 - traced/untraced closed-loop queries/s")

	snap := e.reg.Snapshot()
	hits, misses := float64(snap.Counters["authserver_cache_hits_total"]), float64(snap.Counters["authserver_cache_misses_total"])
	rep.set("authserver.cache_hit_share", share(hits, hits+misses), "ResponseCache counters over the whole run")
	low, mid, high := traced.open[0], traced.open[1], traced.open[2]
	rep.set("authserver.p50_us_mid", mid.windowed(50), fmt.Sprintf("open loop at %.0f qps, from due time, median of %d windows, n=%d", openRates[1], serveWindows, len(mid.latUS)))
	rep.set("authserver.p99_us_mid", mid.windowed(mid.highPct()), fmt.Sprintf("p%.0f of the same", mid.highPct()))
	if all := sortedCopy(mid.latUS); supported(len(all), 99.9) {
		rep.set("authserver.p999_us", percentile(all, 99.9), fmt.Sprintf("open loop at %.0f qps, whole phase, n=%d", openRates[1], len(all)))
	}
	rep.set("authserver.p99_us_low", low.windowed(low.highPct()), fmt.Sprintf("open loop at %.0f qps, p%.0f of the median window", openRates[0], low.highPct()))
	rep.set("authserver.p99_us_high", high.windowed(high.highPct()), fmt.Sprintf("open loop at %.0f qps, p%.0f of the median window", openRates[2], high.highPct()))
	rep.set("authserver.loss_share_high", share(float64(high.lost+high.late), float64(high.sent)),
		fmt.Sprintf("open loop at %.0f qps: unanswered or later than %v, of %d", openRates[2], lateLimit, high.sent))
	rep.set("loadgen.lateness_p99_us", percentile(mid.lateUS, 99), fmt.Sprintf("how late the generator began a send, open loop at %.0f qps", openRates[1]))
	udpUS, tcpUS, err := e.pingPong()
	if err != nil {
		return nil, err
	}
	rep.set("authserver.udp_rtt_us", udpUS, "one query in flight, cached answer, median of 2000")
	rep.set("authserver.tcp_rtt_us", tcpUS, "one query in flight on one connection, cached answer, median of 2000")

	// The layer replays run on the world's other servers, so that
	// switching their caches on and off cannot touch the server above.
	ctx := context.Background()
	layerSuite(ctx, rep, captureSample(ctx, e.w.active))
	return rep, nil
}
