package measure

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"govdns/internal/chaos"
	"govdns/internal/dnsname"
	"govdns/internal/obs"
	"govdns/internal/resolver"
	"govdns/internal/worldgen"
)

// streamWorld builds the small differential world shared by the
// streaming tests — same (seed, scale) pair the invariance harness
// uses, so the slice-path behaviour here is already pinned elsewhere.
func streamWorld(t *testing.T) *worldgen.Active {
	t.Helper()
	w := worldgen.Generate(worldgen.Config{Seed: 42, Scale: 0.002})
	return worldgen.Build(w)
}

// streamScanner builds a fresh scanner — fresh client and iterator per
// run, so no resolver cache state leaks between the interrupted and
// resumed halves of a scan. Adaptive ordering stays off: resume
// determinism is defined over content-pure behaviour, and health
// feedback would reorder server choices across the restart.
func streamScanner(tr resolver.Transport, roots []netip.Addr, workers, fanout int) *Scanner {
	client := resolver.NewClient(tr)
	client.Timeout = worldDeadline
	client.Retries = 0
	it := resolver.NewIterator(client, roots)
	it.AdaptiveOrder = false
	s := NewScanner(it)
	s.Concurrency = workers
	s.PerDomainParallelism = fanout
	return s
}

// canonicalJSONL renders results exactly as the slice path archives
// them; the streaming path is pinned byte-for-byte against this.
func canonicalJSONL(t testing.TB, results []*DomainResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, results); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestScanStreamMatchesSlice is the tentpole differential: for the same
// world and input order, ScanStream's output bytes and digest must be
// bit-identical to WriteJSONL/Digest over the slice-based Scan, fed
// from a SliceSource over the world's query list as govscan feeds it.
func TestScanStreamMatchesSlice(t *testing.T) {
	active := streamWorld(t)
	slice := scanTuned(t, active.Net, active.Roots, active.QueryList, 8, 2, false, worldDeadline, 0)
	wantBytes := canonicalJSONL(t, slice)
	wantDigest := DigestHex(slice)

	sources := []struct {
		name string
		src  DomainSource
	}{
		{"SliceSource", SliceSource(active.QueryList)},
	}
	for _, tc := range sources {
		t.Run(tc.name, func(t *testing.T) {
			var got bytes.Buffer
			sw := NewStreamWriter(&got, StreamConfig{})
			s := streamScanner(active.Net, active.Roots, 8, 2)
			if err := s.ScanStream(context.Background(), tc.src, sw); err != nil {
				t.Fatalf("ScanStream: %v", err)
			}
			if sw.Emitted() != len(active.QueryList) {
				t.Fatalf("emitted %d results, want %d", sw.Emitted(), len(active.QueryList))
			}
			if !bytes.Equal(got.Bytes(), wantBytes) {
				t.Error("streamed bytes differ from slice-path WriteJSONL")
			}
			if sw.DigestHex() != wantDigest {
				t.Errorf("streamed digest %s != slice digest %s", sw.DigestHex(), wantDigest)
			}
		})
	}
}

// fullDisk is an io.Writer that accepts nothing: the first flush of the
// stream writer's buffer fails for good. When sent is set, the first
// Write records what it read then: the scan's query count at the moment
// the write error happened. The stream writer writes under its lock, so
// the fields need none of their own.
type fullDisk struct {
	sent      func() uint64
	writes    int
	sentAtErr uint64
}

var errDiskFull = errors.New("disk full")

func (d *fullDisk) Write([]byte) (int, error) {
	if d.writes == 0 && d.sent != nil {
		d.sentAtErr = d.sent()
	}
	d.writes++
	return 0, errDiskFull
}

// TestScanStreamStopsOnWriteError: a sticky write error ends the scan.
// The writer's error comes back from ScanStream, and the feed stops and
// in-flight work is cancelled instead of probing every remaining domain
// for results that have nowhere to go.
//
// The property is measured where it is defined, from the first failed
// Write on: after it, each of the Concurrency workers may finish the
// domain it holds — its next Offer returns the error and cancels the
// scan, and a cancelled scan sends nothing more — so the queries sent
// after the error are at most Concurrency times the most queries any
// one domain costs, counted on cold caches. When that Write comes is
// up to the schedule: lines leave in input order, so a slow first
// domain lets the rest of the scan run ahead of it.
func TestScanStreamStopsOnWriteError(t *testing.T) {
	const workers = 8
	active := streamWorld(t)
	whole := streamScanner(active.Net, active.Roots, workers, 2)
	if err := whole.ScanStream(context.Background(), SliceSource(active.QueryList), NewStreamWriter(io.Discard, StreamConfig{})); err != nil {
		t.Fatalf("reference ScanStream: %v", err)
	}
	var perDomain uint64
	for _, d := range active.QueryList {
		alone := streamScanner(active.Net, active.Roots, 1, 1)
		alone.ScanDomain(context.Background(), d)
		perDomain = max(perDomain, alone.Iterator.Stats().Sent)
	}

	s := streamScanner(active.Net, active.Roots, workers, 2)
	disk := &fullDisk{sent: func() uint64 { return s.Iterator.Stats().Sent }}
	sw := NewStreamWriter(disk, StreamConfig{})
	err := s.ScanStream(context.Background(), SliceSource(active.QueryList), sw)
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("ScanStream error = %v, want the writer's %v", err, errDiskFull)
	}
	if disk.writes == 0 {
		t.Fatal("the stream never wrote")
	}
	all := whole.Iterator.Stats().Sent
	if after, bound := s.Iterator.Stats().Sent-disk.sentAtErr, workers*perDomain; after > bound {
		t.Errorf("scan sent %d queries after the write error, over the %d that %d workers' domains in flight can send (at most %d each); the whole scan sends %d",
			after, bound, workers, perDomain, all)
	}
}

// TestStreamWriterReorders: results offered out of index order come out
// in index order, the reorder window's highwater is tracked, and the
// final bytes match the slice path.
func TestStreamWriterReorders(t *testing.T) {
	results := goldenResults()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, StreamConfig{maxBuffer: 8})
	for _, idx := range []int{2, 1, 0, 3} {
		if err := sw.Offer(idx, results[idx]); err != nil {
			t.Fatalf("Offer(%d): %v", idx, err)
		}
	}
	if err := sw.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), canonicalJSONL(t, results)) {
		t.Error("reordered emission differs from canonical bytes")
	}
	// Occupancy peaks when index 0 lands next to buffered 1 and 2, the
	// instant before the contiguous run drains.
	if sw.Highwater() != 3 {
		t.Errorf("highwater = %d, want 3", sw.Highwater())
	}
	if sw.DigestHex() != DigestHex(results) {
		t.Error("streamed digest differs from slice digest")
	}
}

// TestStreamWriterBackpressure: with a window of one, an offer for a
// non-cursor index blocks until the cursor advances — and completes
// once it does, rather than deadlocking or dropping.
func TestStreamWriterBackpressure(t *testing.T) {
	results := goldenResults()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, StreamConfig{maxBuffer: 1})
	if err := sw.Offer(2, results[2]); err != nil { // fills the window
		t.Fatalf("Offer(2): %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- sw.Offer(1, results[1]) }() // must block: window full, 1 != cursor
	select {
	case err := <-done:
		t.Fatalf("Offer(1) did not block on a full window (err=%v)", err)
	default:
	}
	if err := sw.Offer(0, results[0]); err != nil { // cursor index always admitted
		t.Fatalf("Offer(0): %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked Offer(1) failed after drain: %v", err)
	}
	if err := sw.Offer(3, results[3]); err != nil {
		t.Fatalf("Offer(3): %v", err)
	}
	if err := sw.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), canonicalJSONL(t, results)) {
		t.Error("backpressured emission differs from canonical bytes")
	}
}

// TestStreamWriterOntoPipe: a stream onto a pipe (govscan -out
// /dev/stdout | gzip) finishes cleanly with checkpointing off and on.
// A pipe cannot be fsynced, so the writer only flushes it.
func TestStreamWriterOntoPipe(t *testing.T) {
	results := goldenResults()
	for _, cfg := range []StreamConfig{{}, {CheckpointPath: filepath.Join(t.TempDir(), "scan.ckpt")}} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(r)
			got <- b
		}()
		sw := NewStreamWriter(w, cfg)
		for i, res := range results {
			if err := sw.Offer(i, res); err != nil {
				t.Fatalf("checkpoint %q: Offer(%d): %v", cfg.CheckpointPath, i, err)
			}
		}
		if err := sw.Finish(); err != nil {
			t.Errorf("checkpoint %q: Finish onto a pipe: %v", cfg.CheckpointPath, err)
		}
		_ = w.Close()
		if !bytes.Equal(<-got, canonicalJSONL(t, results)) {
			t.Errorf("checkpoint %q: piped bytes differ from canonical bytes", cfg.CheckpointPath)
		}
		_ = r.Close()
	}
}

// TestWriteFileAtomic: a replacement leaves exactly the new bytes and
// no temp file, also over a stale temp file a crashed write left
// behind; a write that cannot create its temp file returns the error
// and leaves the target as it was.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	onlyTarget := func() {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "state.json" {
			t.Errorf("directory holds %v, want only state.json", entries)
		}
	}
	wantContent := func(want string) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("target = %q, %v; want %q", got, err, want)
		}
	}

	if err := WriteFileAtomic(path, []byte("first\n")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	wantContent("first\n")
	onlyTarget()

	if err := os.WriteFile(path+".tmp", []byte("torn stale temp file, longer than the new bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second\n")); err != nil {
		t.Fatalf("write over a stale temp file: %v", err)
	}
	wantContent("second\n")
	onlyTarget()

	missing := filepath.Join(dir, "missing", "state.json")
	if err := WriteFileAtomic(missing, []byte("third\n")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("write into a missing directory: err = %v, want ErrNotExist", err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed write created its target: %v", err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("third\n")); err == nil {
		t.Error("write whose temp file cannot be created succeeded")
	}
	wantContent("second\n")
}

// TestStreamWriterRejectsMisuse: nil results, duplicate indices, and
// indices behind the cursor are programming errors, reported as a
// sticky error rather than silently corrupting the archive.
func TestStreamWriterRejectsMisuse(t *testing.T) {
	results := goldenResults()
	cases := []struct {
		name  string
		drive func(sw *StreamWriter) error
	}{
		{"nil result", func(sw *StreamWriter) error { return sw.Offer(0, nil) }},
		{"duplicate pending", func(sw *StreamWriter) error {
			if err := sw.Offer(1, results[1]); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			return sw.Offer(1, results[1])
		}},
		{"behind cursor", func(sw *StreamWriter) error {
			if err := sw.Offer(0, results[0]); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			return sw.Offer(0, results[0])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := NewStreamWriter(&bytes.Buffer{}, StreamConfig{})
			if err := tc.drive(sw); err == nil {
				t.Error("misuse accepted")
			}
			if sw.Err() == nil {
				t.Error("misuse did not stick as the writer error")
			}
		})
	}
}

// killResumeRoundTrip runs the full crash drill against a reference
// scan: stream with checkpoints, cancel after killAt results, resume
// from the checkpoint with a fresh scanner, and require the merged
// output bytes and digest to be bit-identical to the uninterrupted
// run's. newScanner must return a *fresh* scanner (and, under chaos, a
// fresh deterministic transport) on every call.
func killResumeRoundTrip(t *testing.T, domains []dnsname.Name, newScanner func() *Scanner, killAt int, wantBytes []byte, wantDigest string) {
	t.Helper()
	dir := t.TempDir()
	outPath := filepath.Join(dir, "scan.jsonl")
	ckPath := filepath.Join(dir, "scan.ckpt")
	cfg := StreamConfig{CheckpointPath: ckPath, CheckpointEvery: 4, ScanKey: "kill-resume"}

	// Interrupted run: cancel once killAt results have been emitted.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	killCfg := cfg
	killCfg.OnResult = func(*DomainResult) {
		n++
		if n == killAt {
			cancel()
		}
	}
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewStreamWriter(f, killCfg)
	err = newScanner().ScanStream(ctx, SliceSource(domains), sw)
	if closeErr := f.Close(); closeErr != nil {
		t.Fatal(closeErr)
	}
	if err == nil {
		t.Fatal("interrupted scan returned no error")
	}
	emitted := sw.Emitted()
	if emitted < killAt || emitted >= len(domains) {
		t.Fatalf("kill landed at %d emitted of %d total (killAt=%d): not a mid-scan interruption",
			emitted, len(domains), killAt)
	}

	// Resumed run: fresh writer from the checkpoint, fresh scanner.
	sw2, info, err := ResumeStream(outPath, cfg)
	if err != nil {
		t.Fatalf("ResumeStream: %v", err)
	}
	defer sw2.Close()
	if info.Emitted != emitted {
		t.Fatalf("resume found %d emitted, writer reported %d", info.Emitted, emitted)
	}
	if err := newScanner().ScanStream(context.Background(), SliceSource(domains), sw2); err != nil {
		t.Fatalf("resumed ScanStream: %v", err)
	}
	if sw2.Emitted() != len(domains) {
		t.Fatalf("resumed scan emitted %d of %d", sw2.Emitted(), len(domains))
	}

	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Error("merged output differs from uninterrupted run")
	}
	if sw2.DigestHex() != wantDigest {
		t.Errorf("merged digest %s != uninterrupted %s", sw2.DigestHex(), wantDigest)
	}
	// The final checkpoint must agree with the completed archive.
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if ck.Emitted != uint64(len(domains)) {
		t.Errorf("final checkpoint emitted = %d, want %d", ck.Emitted, len(domains))
	}
}

// TestScanStreamKillAtNResumeClean: killing a clean-world streaming
// scan after N results and resuming from the checkpoint reproduces the
// uninterrupted archive bit for bit, including at an N that is not a
// checkpoint-interval multiple.
func TestScanStreamKillAtNResumeClean(t *testing.T) {
	active := streamWorld(t)
	slice := scanTuned(t, active.Net, active.Roots, active.QueryList, 8, 2, false, worldDeadline, 0)
	wantBytes := canonicalJSONL(t, slice)
	wantDigest := DigestHex(slice)

	for _, killAt := range []int{3, 10} { // off and on checkpoint-boundary-ish
		t.Run(fmt.Sprintf("killAt%d", killAt), func(t *testing.T) {
			killResumeRoundTrip(t, active.QueryList,
				func() *Scanner { return streamScanner(active.Net, active.Roots, 8, 2) },
				killAt, wantBytes, wantDigest)
		})
	}
}

// TestScanStreamKillAtNResumeChaos is the crash drill under serial
// persistent chaos: with one worker, content-keyed persistent faults
// are a pure function of the bytes on the wire, so a killed-and-resumed
// scan must reproduce the uninterrupted archive exactly even though
// every query can be dropped, truncated, or mangled. Duplicate/Flap
// (stateful rules) stay out, and adaptive ordering stays off, exactly
// as in the serial-reproducibility invariance test.
func TestScanStreamKillAtNResumeChaos(t *testing.T) {
	active := streamWorld(t)
	rules := []chaos.Rule{
		chaos.Persistent(chaos.Drop, 0.03),
		chaos.Persistent(chaos.Truncate, 0.05),
		chaos.Persistent(chaos.FlipRCode, 0.05),
		chaos.Persistent(chaos.CorruptQID, 0.02),
		chaos.Persistent(chaos.MismatchQuestion, 0.02),
		chaos.Persistent(chaos.Mangle, 0.02),
	}
	ref := chaos.Wrap(active.Net, 7, rules...)
	slice := scanTuned(t, ref, active.Roots, active.QueryList, 1, 1, false, worldDeadline, 0)
	if ref.Stats().Total() == 0 {
		t.Fatal("chaos injected nothing; the test is vacuous")
	}
	wantBytes := canonicalJSONL(t, slice)
	wantDigest := DigestHex(slice)

	killResumeRoundTrip(t, active.QueryList,
		func() *Scanner {
			tr := chaos.Wrap(active.Net, 7, rules...)
			return streamScanner(tr, active.Roots, 1, 1)
		},
		5, wantBytes, wantDigest)
}

// writeCheckpointedPrefix streams results[0:prefix] into outPath with a
// checkpoint covering exactly that prefix, then abandons the writer
// without Finish — the on-disk state of a process killed mid-scan.
func writeCheckpointedPrefix(t testing.TB, outPath, ckPath, key string, results []*DomainResult, prefix int) {
	t.Helper()
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sw := NewStreamWriter(f, StreamConfig{CheckpointPath: ckPath, CheckpointEvery: prefix, ScanKey: key})
	for i := 0; i < prefix; i++ {
		if err := sw.Offer(i, results[i]); err != nil {
			t.Fatalf("Offer(%d): %v", i, err)
		}
	}
	if sw.Emitted() != prefix {
		t.Fatalf("emitted %d, want %d (checkpoint interval missed)", sw.Emitted(), prefix)
	}
	if _, err := LoadCheckpoint(ckPath); err != nil {
		t.Fatalf("prefix checkpoint not written: %v", err)
	}
	// No Finish, no Flush: anything past the checkpoint is whatever the
	// test appends to the file by hand.
}

// TestResumeSalvagesCanonicalTail: lines written after the last
// checkpoint survive a crash when they are complete and canonical —
// resume verifies and keeps them — while a torn final line is
// truncated away. The completed archive is still bit-identical.
func TestResumeSalvagesCanonicalTail(t *testing.T) {
	results := goldenResults()
	want := canonicalJSONL(t, results)
	dir := t.TempDir()
	outPath := filepath.Join(dir, "scan.jsonl")
	ckPath := filepath.Join(dir, "scan.ckpt")

	writeCheckpointedPrefix(t, outPath, ckPath, "salvage", results, 2)

	// The crash got result 2 fully to disk and half of result 3.
	line2 := canonicalJSONL(t, results[2:3])
	line3 := canonicalJSONL(t, results[3:4])
	torn := line3[:10]
	f, err := os.OpenFile(outPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(append([]byte(nil), line2...), torn...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := StreamConfig{CheckpointPath: ckPath, CheckpointEvery: 2, ScanKey: "salvage"}
	sw, info, err := ResumeStream(outPath, cfg)
	if err != nil {
		t.Fatalf("ResumeStream: %v", err)
	}
	defer sw.Close()
	if info.Emitted != 3 || info.Salvaged != 1 || info.DroppedBytes != int64(len(torn)) {
		t.Fatalf("ResumeInfo = %+v, want emitted 3, salvaged 1, dropped %d", info, len(torn))
	}
	if err := sw.Offer(3, results[3]); err != nil {
		t.Fatalf("Offer(3): %v", err)
	}
	if err := sw.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("salvaged archive differs from canonical bytes:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if sw.DigestHex() != DigestHex(results) {
		t.Error("salvaged digest differs from slice digest")
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if ck.Emitted != uint64(len(results)) {
		t.Errorf("final checkpoint emitted = %d, want %d", ck.Emitted, len(results))
	}
}

// TestResumeDropsGarbageTail: a non-canonical tail (text that is not a
// result line) is truncated, not salvaged and not silently skipped
// past — the archive returns to exactly the checkpointed prefix.
func TestResumeDropsGarbageTail(t *testing.T) {
	results := goldenResults()
	dir := t.TempDir()
	outPath := filepath.Join(dir, "scan.jsonl")
	ckPath := filepath.Join(dir, "scan.ckpt")
	writeCheckpointedPrefix(t, outPath, ckPath, "garbage", results, 2)
	prefix, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}

	garbage := []byte("{\"domain\":\"x.gov.br.\",\"unknown\":true}\nnot json at all\n")
	f, err := os.OpenFile(outPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := StreamConfig{CheckpointPath: ckPath, ScanKey: "garbage"}
	sw, info, err := ResumeStream(outPath, cfg)
	if err != nil {
		t.Fatalf("ResumeStream: %v", err)
	}
	defer sw.Close()
	if info.Emitted != 2 || info.Salvaged != 0 || info.DroppedBytes != int64(len(garbage)) {
		t.Fatalf("ResumeInfo = %+v, want emitted 2, salvaged 0, dropped %d", info, len(garbage))
	}
	if err := sw.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prefix) {
		t.Error("garbage tail not truncated back to the checkpointed prefix")
	}
}

// TestResumeRejectsCorruption: every way the on-disk pair can be
// inconsistent — corrupted checkpoint, mismatched scan key, output
// shorter than the checkpoint claims, or a rewritten byte inside the
// checkpointed prefix — must fail resume loudly.
func TestResumeRejectsCorruption(t *testing.T) {
	results := goldenResults()
	setup := func(t *testing.T, key string) (outPath, ckPath string) {
		dir := t.TempDir()
		outPath = filepath.Join(dir, "scan.jsonl")
		ckPath = filepath.Join(dir, "scan.ckpt")
		writeCheckpointedPrefix(t, outPath, ckPath, key, results, 3)
		return outPath, ckPath
	}
	flipByte := func(t *testing.T, path string, off int64) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if off < 0 {
			off += int64(len(data))
		}
		data[off] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("corrupt checkpoint", func(t *testing.T) {
		_, ckPath := setup(t, "k")
		flipByte(t, ckPath, 40)
		if _, err := LoadCheckpoint(ckPath); err == nil {
			t.Error("corrupted checkpoint accepted")
		}
	})
	t.Run("truncated checkpoint", func(t *testing.T) {
		outPath, ckPath := setup(t, "k")
		data, err := os.ReadFile(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckPath, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResumeStream(outPath, StreamConfig{CheckpointPath: ckPath, ScanKey: "k"}); err == nil {
			t.Error("torn checkpoint accepted")
		}
	})
	t.Run("scan key mismatch", func(t *testing.T) {
		outPath, ckPath := setup(t, "k")
		if _, _, err := ResumeStream(outPath, StreamConfig{CheckpointPath: ckPath, ScanKey: "other"}); err == nil {
			t.Error("resume accepted a checkpoint from a different scan")
		}
	})
	t.Run("output shorter than checkpoint", func(t *testing.T) {
		outPath, ckPath := setup(t, "k")
		info, err := os.Stat(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(outPath, info.Size()-5); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResumeStream(outPath, StreamConfig{CheckpointPath: ckPath, ScanKey: "k"}); err == nil {
			t.Error("resume accepted an output shorter than the checkpointed offset")
		}
	})
	t.Run("prefix rewritten", func(t *testing.T) {
		outPath, ckPath := setup(t, "k")
		flipByte(t, outPath, 20)
		if _, _, err := ResumeStream(outPath, StreamConfig{CheckpointPath: ckPath, ScanKey: "k"}); err == nil {
			t.Error("resume accepted a modified checkpointed prefix")
		}
	})
	t.Run("missing output", func(t *testing.T) {
		outPath, ckPath := setup(t, "k")
		if err := os.Remove(outPath); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResumeStream(outPath, StreamConfig{CheckpointPath: ckPath, ScanKey: "k"}); err == nil {
			t.Error("resume accepted a missing output file")
		}
	})
}

// TestScanStreamMetrics: the streaming counters observable via obs —
// results streamed, checkpoints written, resumed skips, and the buffer
// highwater gauge — reflect what actually happened.
func TestScanStreamMetrics(t *testing.T) {
	active := streamWorld(t)
	dir := t.TempDir()
	outPath := filepath.Join(dir, "scan.jsonl")
	ckPath := filepath.Join(dir, "scan.ckpt")

	reg := obs.NewRegistry()
	m := NewScanMetrics(reg)
	cfg := StreamConfig{CheckpointPath: ckPath, CheckpointEvery: 4, ScanKey: "metrics", Metrics: m}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	killCfg := cfg
	killCfg.OnResult = func(*DomainResult) {
		n++
		if n == 6 {
			cancel()
		}
	}
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	s := streamScanner(active.Net, active.Roots, 8, 2)
	s.Metrics = m
	sw := NewStreamWriter(f, killCfg)
	if err := s.ScanStream(ctx, SliceSource(active.QueryList), sw); err == nil {
		t.Fatal("interrupted scan returned no error")
	}
	f.Close()
	emitted := sw.Emitted()
	if got := reg.Counter("scan_results_streamed_total").Load(); got != uint64(emitted) {
		t.Errorf("scan_results_streamed_total = %d, want %d", got, emitted)
	}
	if got := reg.Counter("scan_checkpoints_written_total").Load(); got < 1 {
		t.Errorf("scan_checkpoints_written_total = %d, want >= 1", got)
	}
	if got := reg.Gauge("scan_stream_buffer_highwater").Load(); got != int64(sw.Highwater()) {
		t.Errorf("scan_stream_buffer_highwater = %d, want %d", got, sw.Highwater())
	}

	sw2, _, err := ResumeStream(outPath, cfg)
	if err != nil {
		t.Fatalf("ResumeStream: %v", err)
	}
	defer sw2.Close()
	s2 := streamScanner(active.Net, active.Roots, 8, 2)
	s2.Metrics = m
	if err := s2.ScanStream(context.Background(), SliceSource(active.QueryList), sw2); err != nil {
		t.Fatalf("resumed ScanStream: %v", err)
	}
	if got := reg.Counter("scan_resumed_skips_total").Load(); got != uint64(emitted) {
		t.Errorf("scan_resumed_skips_total = %d, want %d", got, emitted)
	}
	if got := reg.Counter("scan_results_streamed_total").Load(); got != uint64(len(active.QueryList)) {
		t.Errorf("scan_results_streamed_total = %d after resume, want %d", got, len(active.QueryList))
	}
}
