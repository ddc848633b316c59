// Command govscan is the standalone bulk delegation scanner — the
// zdns-style tool the study's pipeline is built on. It reads a domain
// list, runs the Fig. 1 measurement for each (parent discovery, per-
// server NS queries, second round), and writes one JSON result per line.
//
// Two backends:
//
//	-sim        scan the synthetic world (default; domain list optional —
//	            the world's own query list is used when no list is given)
//	-real       scan the actual Internet over UDP from the real root
//	            servers (requires network access; be mindful of rate)
//
// Examples:
//
//	govscan -sim -scale 0.02 -out scan.jsonl
//	govscan -sim -chaos persistent:0.05 -stats -out chaotic.jsonl
//	govscan -real -domains domains.txt -concurrency 16 -timeout 2s
//	govscan -summarize scan.jsonl
//
// The scan always streams: results are emitted to -out (or stdout) in
// input order as workers finish, through a bounded reorder window, so
// neither the domain list nor the results are ever held as one slice.
// -checkpoint adds a crash-safe checkpoint record, written
// periodically beside -out. A killed scan restarted with -resume
// continues at the checkpoint and produces output — and a canonical
// digest — bit-identical to an uninterrupted run:
//
//	govscan -sim -scale 1.0 -out scan.jsonl -checkpoint scan.ckpt
//	govscan -sim -scale 1.0 -out scan.jsonl -checkpoint scan.ckpt -resume
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"govdns/internal/chaos"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/measure"
	"govdns/internal/obs"
	"govdns/internal/resolver"
	"govdns/internal/stats"
	"govdns/internal/trace"
	"govdns/internal/udpx"
	"govdns/internal/worldgen"
)

// realRoots are the IPv4 addresses of the root servers (a–m), the
// starting hints for -real mode.
var realRoots = []string{
	"198.41.0.4", "170.247.170.2", "192.33.4.12", "199.7.91.13",
	"192.203.230.10", "192.5.5.241", "192.112.36.4", "198.97.190.53",
	"192.36.148.17", "192.58.128.30", "193.0.14.129", "199.7.83.42",
	"202.12.27.33",
}

func main() {
	// The scan is built to be killed: an interrupt cancels it cleanly, so
	// the output ends at the last contiguous result and Finish writes a
	// final checkpoint covering it (a hard kill loses at most the window
	// since the last periodic checkpoint).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "govscan: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // the telemetry endpoint serves until run returns
	fs := flag.NewFlagSet("govscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sim := fs.Bool("sim", true, "scan the synthetic world")
	real := fs.Bool("real", false, "scan the live Internet over UDP (overrides -sim)")
	domainsPath := fs.String("domains", "", "file with one domain per line")
	out := fs.String("out", "", "output JSONL path (default stdout)")
	scale := fs.Float64("scale", 0.02, "synthetic world scale (-sim)")
	seed := fs.Int64("seed", 42, "synthetic world seed (-sim)")
	concurrency := fs.Int("concurrency", measure.DefaultConcurrency, "concurrent domains")
	fanout := fs.Int("fanout", measure.DefaultPerDomainParallelism,
		"per-domain parallelism: concurrent NS-host resolutions and per-address probes within one domain (1 = serial)")
	showStats := fs.Bool("stats", false, "print resolver cache/coalescing statistics after the scan")
	timeout := fs.Duration("timeout", 0, "per-query timeout (default 25ms sim, 2s real)")
	qps := fs.Float64("qps", 0, "global query rate limit (0 = unlimited; recommended for -real)")
	chaosSpec := fs.String("chaos", "",
		"fault-injection profile: off, transient, persistent[:prob], flap[:len], or one class drop|delay|dup|truncate|qid|question|mangle|rcode[:prob]; seeded by -seed")
	metricsAddr := fs.String("metrics", "",
		"serve a metrics snapshot (JSON) and pprof on this address, e.g. :9090")
	progressEvery := fs.Duration("progress", 0,
		"print periodic scan progress (domains done/total, qps, error rates, ETA) at this interval; 0 disables")
	tracePath := fs.String("trace", "",
		"record per-domain resolution traces and write retained exemplars (slowest, Error/Transient, classification flips) as JSONL to this path; render with govtrace")
	traceSlowest := fs.Int("trace-slowest", 0,
		"with -trace: how many slowest-domain exemplars to retain (default 16)")
	traceErrors := fs.Int("trace-errors", 0,
		"with -trace: ring-buffer bound on Error/Transient exemplars (default 512)")
	summarize := fs.String("summarize", "", "summarize an existing JSONL scan and exit")
	checkpointPath := fs.String("checkpoint", "",
		"write periodic crash-safe checkpoints of -out at this path; a killed scan restarted with -resume continues where it left off")
	resume := fs.Bool("resume", false,
		"with -checkpoint: resume an interrupted streaming scan, validating the checkpoint and extending -out in place")
	checkpointEvery := fs.Int("checkpoint-every", 0,
		"with -checkpoint: results between checkpoint records (default 256)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *summarize != "" {
		return summarizeFile(*summarize, stderr)
	}

	if *checkpointPath != "" && *out == "" {
		return fmt.Errorf("-checkpoint requires -out (a resumable scan needs a seekable output file)")
	}
	if *resume && *checkpointPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	var transport resolver.Transport
	var roots []netip.Addr
	var active *worldgen.Active
	var err error

	var batchTr *udpx.BatchTransport
	switch {
	case *real:
		if *timeout == 0 {
			*timeout = 2 * time.Second
		}
		batchTr, err = udpx.New(udpx.Config{Timeout: *timeout})
		if err != nil {
			return fmt.Errorf("batch transport: %w", err)
		}
		defer func() { _ = batchTr.Close() }()
		transport = batchTr
		for _, s := range realRoots {
			roots = append(roots, netip.MustParseAddr(s))
		}
		if *domainsPath == "" {
			return fmt.Errorf("-real requires -domains")
		}
	case *sim:
		active = worldgen.Build(worldgen.Generate(worldgen.Config{Seed: *seed, Scale: *scale}))
		transport = active.Net
		roots = active.Roots
		if *timeout == 0 {
			*timeout = 25 * time.Millisecond
		}
	default:
		return fmt.Errorf("pick -sim or -real")
	}

	// Domains come from an iterator: the world's query list, or the
	// list file read line by line so a long list is never held as one
	// slice.
	var src measure.DomainSource
	srcTotal := 0
	var srcErr func() error
	if *domainsPath != "" {
		list, err := openFileSource(*domainsPath)
		if err != nil {
			return err
		}
		defer list.Close()
		src, srcErr = list.Next, list.Err
	} else {
		src, srcTotal = measure.SliceSource(active.QueryList), len(active.QueryList)
	}

	if *real && *qps == 0 {
		*qps = 50 // § III-D courtesy: never hammer live infrastructure
	}
	// Chaos wraps the raw transport and the rate limiter wraps chaos, so
	// injected duplicates and delays still count against the query budget
	// the way real wire pathologies would.
	var chaosTr *chaos.Transport
	if rules, err := chaos.ParseProfile(*chaosSpec); err != nil {
		return err
	} else if rules != nil {
		chaosTr = chaos.Wrap(transport, *seed, rules...)
		transport = chaosTr
	}
	transport = resolver.RateLimit(transport, *qps, 10)

	// One registry for the whole pipeline: resolver, chaos, udpx, codec
	// arena and scanner instruments all land on it, so the HTTP snapshot
	// and the progress reporter see a coherent picture. Each component
	// attaches itself before its first use; the first registry wins.
	// The process has exactly one registry, so binding the shared codec
	// arena pool puts dnswire_arena_* counters on /metrics too.
	reg := obs.NewRegistry()
	if chaosTr != nil {
		chaosTr.AttachRegistry(reg)
	}
	if batchTr != nil {
		batchTr.AttachRegistry(reg)
	}
	dnswire.DefaultPool.AttachRegistry(reg)
	client := resolver.NewClient(transport)
	client.Timeout = *timeout
	client.AttachRegistry(reg)
	it := resolver.NewIterator(client, roots)
	scanner := measure.NewScanner(it)
	scanner.Concurrency = *concurrency
	if *fanout <= 0 {
		*fanout = measure.DefaultPerDomainParallelism
	}
	scanner.PerDomainParallelism = *fanout
	scanner.Metrics = measure.NewScanMetrics(reg)
	var flight *trace.FlightRecorder
	if *tracePath != "" {
		flight = trace.NewFlightRecorder(trace.Config{Slowest: *traceSlowest, Errors: *traceErrors})
		flight.AttachRegistry(reg)
		scanner.Trace = flight
	}

	if *metricsAddr != "" {
		// Readiness means "the scan is underway": world built, transports
		// wired, workers about to start. Liveness is process-up.
		health := obs.NewHealth()
		health.SetReady(true)
		bound, err := obs.ServeEndpoint(ctx, *metricsAddr, reg, health)
		if err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		fmt.Fprintf(stderr, "telemetry on http://%s/metrics /healthz /readyz (pprof under /debug/pprof/)\n", bound)
	}

	dest := *out
	if dest == "" {
		dest = "stdout"
	}
	if *checkpointPath != "" {
		dest += " [checkpoint " + *checkpointPath + "]"
	}
	fmt.Fprintf(stderr, "scanning (timeout %v, concurrency %d, fanout %d) -> %s\n",
		*timeout, *concurrency, *fanout, dest)
	if *progressEvery > 0 {
		progressCtx, stopProgress := context.WithCancel(ctx)
		defer stopProgress()
		rep := &measure.ProgressReporter{Metrics: scanner.Metrics, Interval: *progressEvery, W: stderr}
		go rep.Run(progressCtx)
	}
	start := time.Now()
	var sum summary
	cfg := measure.StreamConfig{
		CheckpointPath:  *checkpointPath,
		CheckpointEvery: *checkpointEvery,
		ScanKey:         scanKey(*real, *seed, *scale, *domainsPath, *chaosSpec),
		Metrics:         scanner.Metrics,
		OnResult:        sum.add,
	}
	scanner.Metrics.SetTotal(srcTotal)
	if err := runStream(ctx, scanner, src, cfg, *out, *resume, stdout, stderr); err != nil {
		return err
	}
	if srcErr != nil {
		if err := srcErr(); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
	if *showStats {
		st := it.Stats()
		fmt.Fprintf(stderr,
			"resolver: sent=%d received=%d timeouts=%d; host cache %d hit / %d miss; zone cache %d hit / %d miss; negative hits=%d; coalesced=%d; flight bypasses=%d\n",
			st.Sent, st.Received, st.Timeouts,
			st.HostCacheHits, st.HostCacheMisses,
			st.ZoneCacheHits, st.ZoneCacheMisses,
			st.NegativeHits, st.CoalescedWaits, st.FlightBypasses)
		cs := client.Stats()
		if cs.Mismatches+cs.Truncations+cs.Malformed > 0 {
			fmt.Fprintf(stderr,
				"faults survived: duplicates=%d truncations=%d qid-mismatches=%d question-mismatches=%d malformed=%d\n",
				cs.Duplicates, cs.Truncations, cs.QIDMismatches, cs.QuestionMismatches, cs.Malformed)
		}
		servers := client.WorstServers(-1)
		neverAnswered := 0
		for _, sv := range servers {
			if sv.OK == 0 {
				neverAnswered++
			}
		}
		fmt.Fprintf(stderr, "servers: seen=%d never-answered=%d\n", len(servers), neverAnswered)
		for _, sv := range servers[:min(10, len(servers))] {
			if sv.Timeouts == 0 {
				break
			}
			fmt.Fprintf(stderr, "  %-15s timeouts=%d ok=%d rejects=%d\n", sv.Addr, sv.Timeouts, sv.OK, sv.Rejects)
		}
		if chaosTr != nil {
			fmt.Fprintf(stderr, "chaos: %s\n", chaosTr.Stats())
		}
	}

	if flight != nil {
		tf, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		werr := flight.WriteJSONL(tf)
		if cerr := tf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing traces: %w", werr)
		}
		slow, errsN, flipped, offered := flight.Counts()
		fmt.Fprintf(stderr, "traces: %d offered; retained %d slowest, %d error/transient, %d class-flips -> %s\n",
			offered, slow, errsN, flipped, *tracePath)
	}

	// The summary covers the results this run emitted; after -resume,
	// `govscan -summarize <out>` reads the whole archive back.
	sum.print(stderr)
	return nil
}

// scanKey names a streaming scan's identity; a checkpoint from a
// different backend, world, domain list, or chaos profile must refuse
// to extend this output. Seed and scale are in every key, not only the
// world-query-list one: a -domains list is still scanned against the
// seeded world, and the seed also drives the chaos profile.
func scanKey(real bool, seed int64, scale float64, domainsPath, chaosSpec string) string {
	mode := "sim"
	if real {
		mode = "real"
	}
	return fmt.Sprintf("%s seed=%d scale=%g domains=%s chaos=%s", mode, seed, scale, domainsPath, chaosSpec)
}

// runStream executes the scan against a fresh or resumed StreamWriter
// onto outPath (stdout when empty) and reports the emitted count and
// canonical digest on stderr. A cancelled scan (interrupt) is not an
// error: the output ends at a whole result, a checkpoint makes it
// resumable, and saying so beats a stack trace.
func runStream(ctx context.Context, scanner *measure.Scanner, src measure.DomainSource, cfg measure.StreamConfig, outPath string, resume bool, stdout, stderr io.Writer) error {
	if resume {
		// Resuming before the first checkpoint ever landed is a fresh
		// start — unless output already exists, which would be silently
		// clobbered; make that case explicit.
		if _, err := os.Stat(cfg.CheckpointPath); errors.Is(err, os.ErrNotExist) {
			if _, oerr := os.Stat(outPath); oerr == nil {
				return fmt.Errorf("-resume: no checkpoint at %s but %s exists; remove it or drop -resume", cfg.CheckpointPath, outPath)
			}
			resume = false
		}
	}
	var sw *measure.StreamWriter
	if resume {
		var info measure.ResumeInfo
		var err error
		sw, info, err = measure.ResumeStream(outPath, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "resuming: %d results already on disk (%d salvaged past the checkpoint, %d torn bytes dropped)\n",
			info.Emitted, info.Salvaged, info.DroppedBytes)
	} else if outPath == "" {
		sw = measure.NewStreamWriter(stdout, cfg)
	} else {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintf(stderr, "govscan: closing output: %v\n", cerr)
			}
		}()
		sw = measure.NewStreamWriter(f, cfg)
	}
	defer func() { _ = sw.Close() }()
	err := scanner.ScanStream(ctx, src, sw)
	switch {
	case err == nil:
		fmt.Fprintf(stderr, "streamed %d results (digest %s)\n", sw.Emitted(), sw.DigestHex())
		return nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if cfg.CheckpointPath == "" {
			fmt.Fprintf(stderr, "interrupted after %d results\n", sw.Emitted())
			return nil
		}
		fmt.Fprintf(stderr, "interrupted after %d results; checkpoint at %s covers them — rerun with -resume to continue\n",
			sw.Emitted(), cfg.CheckpointPath)
		return nil
	default:
		return err
	}
}

// fileSource streams a domain list file line by line, so a very large
// list never materializes in memory. A parse error stops the stream;
// Err reports it after the scan drains.
type fileSource struct {
	f      *os.File
	sc     *bufio.Scanner
	path   string
	lineNo int
	err    error
}

func openFileSource(path string) (*fileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &fileSource{f: f, sc: bufio.NewScanner(f), path: path}, nil
}

func (fs *fileSource) Next() (dnsname.Name, bool) {
	for fs.err == nil && fs.sc.Scan() {
		fs.lineNo++
		line := fs.sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, err := dnsname.Parse(line)
		if err != nil {
			fs.err = fmt.Errorf("%s:%d: %w", fs.path, fs.lineNo, err)
			return "", false
		}
		return name, true
	}
	if fs.err == nil {
		fs.err = fs.sc.Err()
	}
	return "", false
}

func (fs *fileSource) Err() error   { return fs.err }
func (fs *fileSource) Close() error { return fs.f.Close() }

func summarizeFile(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	results, err := measure.ReadJSONL(f)
	if err != nil {
		return err
	}
	var sum summary
	for _, r := range results {
		sum.add(r)
	}
	sum.print(w)
	return nil
}

// summary counts a scan's results by the paper's funnel stages, and
// the delegations with data by lameness (§ IV-C).
type summary struct {
	measure.Funnel
	partial, full int
}

func (s *summary) add(r *measure.DomainResult) {
	s.Add(r)
	if r.PartiallyDefective() {
		s.partial++
	}
	if r.FullyDefective() {
		s.full++
	}
}

func (s *summary) print(w io.Writer) {
	fmt.Fprintf(w,
		"summary: %d scanned; parent %d (%.1f%%); data %d (%.1f%%); responsive %d (%.1f%%); partial-lame %d (%.1f%%); full-lame %d (%.1f%%)\n",
		s.Queried,
		s.ParentResponded, stats.Pct(s.ParentResponded, s.Queried),
		s.WithData, stats.Pct(s.WithData, s.Queried),
		s.Responsive, stats.Pct(s.Responsive, s.Queried),
		s.partial, stats.Pct(s.partial, s.WithData),
		s.full, stats.Pct(s.full, s.WithData))
}
