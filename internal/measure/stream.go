package measure

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// This file is the streaming side of the scan pipeline (DESIGN.md § 5):
// StreamWriter emits results as ordered JSONL with a bounded
// out-of-order reorder window, periodically writing an atomic
// checkpoint record, and ResumeStream restarts a killed scan from the
// last checkpoint so the final output — and its canonical digest — is
// bit-identical to an uninterrupted run.

// DefaultStreamMaxBuffer bounds the out-of-order reorder window: how
// many completed-but-not-yet-flushable results the writer holds while
// waiting for an earlier index. Together with the worker count it caps
// the streaming scan's in-flight memory at O(buffer + workers), however
// many domains the source yields.
//
// Lines leave in input order, so the window is how far the scan can run
// ahead of its slowest domain, on scan_sim_mix a walk failure. The size
// dates from when a simulated timeout still cost its 25 ms of wall time:
// then 2,048 took that workload (seed 42) from 7.4k domains/s at 1,024
// to 9.1k–9.7k at p50 145 ms, and no bound at all reached only 9.9k
// (DESIGN.md § 5 has the history). Now that a simulated drop ends its
// attempt at once, the workload runs at 18k–34k domains/s with p50
// 6–12 ms and its high-water mark reads 640–920: the window no longer
// binds there, and what it still does is bound memory.
const DefaultStreamMaxBuffer = 2048

// DefaultCheckpointEvery is how many emitted results separate two
// checkpoint records when StreamConfig.CheckpointEvery is unset.
const DefaultCheckpointEvery = 256

// StreamConfig configures a StreamWriter.
type StreamConfig struct {
	// CheckpointPath, when set, enables crash-safe progress records:
	// every CheckpointEvery results the output is flushed and fsynced
	// and a checkpoint is written atomically (temp file + rename)
	// beside it. Empty disables checkpointing (pure ordered emission).
	CheckpointPath string
	// CheckpointEvery is the emission interval between checkpoints.
	// Zero or negative means DefaultCheckpointEvery.
	CheckpointEvery int
	// ScanKey names the scan's identity (world seed/scale, domain list,
	// chaos profile). It is stored in every checkpoint and verified on
	// resume, so a checkpoint can never silently extend a different
	// scan's output.
	ScanKey string
	// Metrics, when non-nil, receives the streaming counters
	// (results_streamed, buffer_highwater, checkpoints_written).
	Metrics *ScanMetrics
	// OnResult, when non-nil, observes each result as it is emitted, in
	// emission order. It runs under the writer's lock: keep it cheap.
	OnResult func(*DomainResult)
	// OnCheckpoint, when non-nil, fires after each checkpoint record
	// lands durably, with the emitted count it covers. It runs under the
	// writer's lock, after the output has been flushed and fsynced and
	// the checkpoint atomically replaced — the hook a dependent durable
	// stream (the monitor's alert log) uses to commit exactly the
	// records whose scan results are now crash-safe.
	OnCheckpoint func(emitted int)

	// maxBuffer bounds the reorder window; zero means
	// DefaultStreamMaxBuffer. Only tests shrink it, to reach
	// backpressure with a handful of results.
	maxBuffer int
}

func (c *StreamConfig) window() int {
	if c.maxBuffer > 0 {
		return c.maxBuffer
	}
	return DefaultStreamMaxBuffer
}

func (c *StreamConfig) checkpointEvery() int {
	if c.CheckpointEvery > 0 {
		return c.CheckpointEvery
	}
	return DefaultCheckpointEvery
}

// StreamWriter emits scan results as JSONL in input order while
// concurrent workers complete them in completion order. Offer blocks
// when the reorder window is full — except for the result the cursor is
// waiting on, which is always accepted, so the pipeline cannot
// deadlock: the worker holding the cursor's result is by construction
// never one of the waiting ones.
//
// The bytes written are exactly WriteJSONL's for the same results, and
// the digest it accumulates is exactly Digest over them — both pinned
// by the stream-vs-slice differential tests.
type StreamWriter struct {
	cfg      StreamConfig
	file     *os.File // non-nil when the destination is a regular file (fsync on flush)
	ownsFile bool     // ResumeStream opened it; Close closes it

	mu        sync.Mutex
	cond      *sync.Cond
	bw        *bufio.Writer
	jsonl     jsonlEncoder
	line      []byte    // the line being emitted, reused from result to result
	offset    int64     // bytes written so far (== file size after a flush)
	byteHash  hash.Hash // SHA-256 over every output byte, checkpointed for resume verification
	digest    *DigestAccumulator
	next      int // index the output is waiting on; also the emitted count
	pending   map[int]*DomainResult
	highwater int
	sinceCkpt int
	cancelled bool
	finished  bool
	err       error // sticky I/O error
}

// NewStreamWriter starts a fresh stream onto w. When w is an *os.File
// naming a regular file the writer fsyncs it before each checkpoint;
// checkpointing onto any other destination (a pipe, a terminal, a
// buffer) still works but only orders the records, it cannot make them
// durable — and fsync on a pipe fails, so it is not attempted.
func NewStreamWriter(w io.Writer, cfg StreamConfig) *StreamWriter {
	return newStreamWriter(w, cfg, sha256.New(), NewDigestAccumulator())
}

// newStreamWriter builds the writer's output state onto w, continuing
// byteHash and digest; a resumed writer then sets where it starts.
func newStreamWriter(w io.Writer, cfg StreamConfig, byteHash hash.Hash, digest *DigestAccumulator) *StreamWriter {
	sw := &StreamWriter{
		cfg:      cfg,
		bw:       bufio.NewWriter(w),
		byteHash: byteHash,
		digest:   digest,
		pending:  make(map[int]*DomainResult),
	}
	if f, ok := w.(*os.File); ok {
		if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
			sw.file = f
		}
	}
	sw.cond = sync.NewCond(&sw.mu)
	return sw
}

// Offer hands the writer result idx. It blocks while the reorder window
// is full and idx is not the next index in sequence; it returns the
// writer's sticky I/O error, if any. After Cancel, offers are dropped
// and return immediately.
func (sw *StreamWriter) Offer(idx int, r *DomainResult) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for !sw.cancelled && sw.err == nil && idx != sw.next && len(sw.pending) >= sw.cfg.window() {
		sw.cond.Wait()
	}
	if sw.cancelled || sw.err != nil {
		return sw.err
	}
	if r == nil || idx < sw.next || sw.pending[idx] != nil {
		sw.err = fmt.Errorf("measure: stream offer %d is nil, duplicated, or precedes cursor %d", idx, sw.next)
		sw.cond.Broadcast()
		return sw.err
	}
	sw.pending[idx] = r
	if len(sw.pending) > sw.highwater {
		sw.highwater = len(sw.pending)
		sw.cfg.Metrics.recordBufferHighwater(sw.highwater)
	}
	sw.drainLocked()
	sw.cond.Broadcast()
	return sw.err
}

// drainLocked flushes the contiguous run of pending results at the
// cursor and writes a checkpoint whenever one falls due.
func (sw *StreamWriter) drainLocked() {
	for sw.err == nil && !sw.cancelled {
		r, ok := sw.pending[sw.next]
		if !ok {
			return
		}
		delete(sw.pending, sw.next)
		sw.emitLocked(r)
		if sw.err == nil && sw.cfg.CheckpointPath != "" && sw.sinceCkpt >= sw.cfg.checkpointEvery() {
			sw.checkpointLocked()
		}
	}
}

// emitLocked writes r's line, extending the byte hash and offset that
// a checkpoint records over exactly what reached the buffered writer,
// and folds r into the digest.
func (sw *StreamWriter) emitLocked(r *DomainResult) {
	sw.line = sw.jsonl.appendResultJSON(sw.line[:0], r)
	n, err := sw.bw.Write(sw.line)
	sw.byteHash.Write(sw.line[:n])
	sw.offset += int64(n)
	if err != nil {
		sw.err = fmt.Errorf("measure: writing streamed result %d: %w", sw.next, err)
		return
	}
	sw.digest.Add(r)
	sw.next++
	sw.sinceCkpt++
	sw.cfg.Metrics.recordStreamed()
	if sw.cfg.OnResult != nil {
		sw.cfg.OnResult(r)
	}
}

// Cancel puts the writer into drop mode: buffered and future offers are
// discarded and workers blocked in Offer are released. Everything
// already emitted stays valid — Finish still flushes and checkpoints
// the contiguous prefix — so Cancel plus Finish is the crash-consistent
// way to stop early. ScanStream arms it via context.AfterFunc.
func (sw *StreamWriter) Cancel() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.cancelled = true
	sw.cond.Broadcast()
}

// Finish drains what the cursor can reach, flushes the output, and —
// when checkpointing is enabled — records a final checkpoint covering
// exactly the emitted prefix. It returns the writer's sticky error.
// Results still buffered beyond a gap (a cancelled scan's discarded
// indices) are dropped: they are beyond the prefix a resume can extend.
func (sw *StreamWriter) Finish() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.finished {
		return sw.err
	}
	sw.finished = true
	if !sw.cancelled {
		sw.drainLocked()
	}
	sw.pending = make(map[int]*DomainResult)
	if sw.err == nil {
		if err := sw.flushLocked(); err != nil {
			sw.err = err
		}
	}
	if sw.err == nil && sw.cfg.CheckpointPath != "" {
		sw.checkpointLocked()
	}
	sw.cond.Broadcast()
	return sw.err
}

// Close releases the output file when the writer owns it (ResumeStream
// opened it). For writers built on a caller-provided destination it is
// a no-op: the destination stays the caller's to close.
func (sw *StreamWriter) Close() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.ownsFile && sw.file != nil {
		err := sw.file.Close()
		sw.file = nil
		return err
	}
	return nil
}

// Emitted returns the number of results written so far — the stream
// cursor. A resumed writer starts at the checkpointed count, which is
// how ScanStream knows how many source domains to skip.
func (sw *StreamWriter) Emitted() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.next
}

// Digest returns the canonical scan digest over every emitted result —
// the streaming equivalent of Digest over a result slice.
func (sw *StreamWriter) Digest() [sha256.Size]byte {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.digest.Sum()
}

// DigestHex is Digest rendered as hex.
func (sw *StreamWriter) DigestHex() string {
	d := sw.Digest()
	return hex.EncodeToString(d[:])
}

// Err returns the writer's sticky I/O error.
func (sw *StreamWriter) Err() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.err
}

// Highwater returns the reorder window's high-water mark.
func (sw *StreamWriter) Highwater() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.highwater
}

func (sw *StreamWriter) flushLocked() error {
	if err := sw.bw.Flush(); err != nil {
		return err
	}
	if sw.file != nil {
		if err := sw.file.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// --- checkpoint records -------------------------------------------------

const (
	checkpointMagic   = "govdns-scan-checkpoint"
	checkpointVersion = 1
)

// checkpointJSON is the on-disk checkpoint record. The checksum covers
// every other field, so a torn or tampered record is detected rather
// than trusted; the file itself is replaced atomically (temp + rename),
// so a crash leaves either the old record or the new one, never a mix.
type checkpointJSON struct {
	Magic    string `json:"magic"`
	Version  int    `json:"version"`
	ScanKey  string `json:"scan_key,omitempty"`
	Emitted  uint64 `json:"emitted"`
	Offset   int64  `json:"offset"`
	Digest   string `json:"digest_state"`
	ByteHash string `json:"byte_hash_state"`
	Checksum string `json:"checksum"`
}

func (c *checkpointJSON) sum() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00%s\x00%d\x00%d\x00%s\x00%s",
		c.Magic, c.Version, c.ScanKey, c.Emitted, c.Offset, c.Digest, c.ByteHash)
	return hex.EncodeToString(h.Sum(nil))
}

func (sw *StreamWriter) checkpointLocked() {
	if err := sw.flushLocked(); err != nil {
		sw.err = err
		return
	}
	ck := &checkpointJSON{
		Magic:   checkpointMagic,
		Version: checkpointVersion,
		ScanKey: sw.cfg.ScanKey,
		Emitted: uint64(sw.next),
		Offset:  sw.offset,
	}
	dst, err := sw.digest.MarshalBinary()
	if err != nil {
		sw.err = fmt.Errorf("measure: checkpoint digest state: %w", err)
		return
	}
	bst, err := sw.byteHash.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		sw.err = fmt.Errorf("measure: checkpoint byte-hash state: %w", err)
		return
	}
	ck.Digest = base64.StdEncoding.EncodeToString(dst)
	ck.ByteHash = base64.StdEncoding.EncodeToString(bst)
	ck.Checksum = ck.sum()
	data, err := json.Marshal(ck)
	if err != nil {
		sw.err = fmt.Errorf("measure: checkpoint encode: %w", err)
		return
	}
	if err := WriteFileAtomic(sw.cfg.CheckpointPath, append(data, '\n')); err != nil {
		sw.err = fmt.Errorf("measure: checkpoint write: %w", err)
		return
	}
	sw.sinceCkpt = 0
	sw.cfg.Metrics.recordCheckpoint()
	if sw.cfg.OnCheckpoint != nil {
		sw.cfg.OnCheckpoint(sw.next)
	}
}

// WriteFileAtomic writes data so a crash at any instant leaves either
// the previous file or the complete new one: write to path+".tmp" (a
// stale one from a crashed earlier write is overwritten), fsync, rename
// over the target, fsync the directory (best effort — not every
// filesystem supports it). The directory fsync is what orders the
// rename before any later change the caller makes in the same
// directory.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return werr
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}

// Checkpoint is a validated, decoded checkpoint record.
type Checkpoint struct {
	ScanKey string
	Emitted uint64
	Offset  int64

	digest   *DigestAccumulator
	byteHash hash.Hash
}

// LoadCheckpoint reads and fully validates a checkpoint. Any corruption
// — torn JSON, wrong magic or version, checksum mismatch, undecodable
// hash states — is an explicit error: a resume must abort on a bad
// checkpoint, never silently skip it (FuzzCheckpointReader pins this).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c checkpointJSON
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("measure: checkpoint %s: %w", path, err)
	}
	if c.Magic != checkpointMagic {
		return nil, fmt.Errorf("measure: checkpoint %s: bad magic %q", path, c.Magic)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("measure: checkpoint %s: unsupported version %d", path, c.Version)
	}
	if c.Checksum != c.sum() {
		return nil, fmt.Errorf("measure: checkpoint %s: checksum mismatch (torn or corrupted record)", path)
	}
	dst, err := base64.StdEncoding.DecodeString(c.Digest)
	if err != nil {
		return nil, fmt.Errorf("measure: checkpoint %s: digest state: %w", path, err)
	}
	bst, err := base64.StdEncoding.DecodeString(c.ByteHash)
	if err != nil {
		return nil, fmt.Errorf("measure: checkpoint %s: byte-hash state: %w", path, err)
	}
	ck := &Checkpoint{ScanKey: c.ScanKey, Emitted: c.Emitted, Offset: c.Offset}
	ck.digest = &DigestAccumulator{}
	if err := ck.digest.UnmarshalBinary(dst); err != nil {
		return nil, fmt.Errorf("measure: checkpoint %s: %w", path, err)
	}
	if ck.digest.Count() != c.Emitted {
		return nil, fmt.Errorf("measure: checkpoint %s: digest count %d != emitted %d", path, ck.digest.Count(), c.Emitted)
	}
	ck.byteHash = sha256.New()
	if err := ck.byteHash.(encoding.BinaryUnmarshaler).UnmarshalBinary(bst); err != nil {
		return nil, fmt.Errorf("measure: checkpoint %s: byte-hash state: %w", path, err)
	}
	if c.Offset < 0 {
		return nil, fmt.Errorf("measure: checkpoint %s: negative offset %d", path, c.Offset)
	}
	return ck, nil
}

// ResumeInfo reports what ResumeStream found on disk.
type ResumeInfo struct {
	// Emitted is the total number of results already in the output —
	// the checkpointed count plus any salvaged tail lines. ScanStream
	// skips this many source domains.
	Emitted int
	// Salvaged counts complete, canonical JSONL lines found past the
	// checkpoint offset (results the crash wrote but never
	// checkpointed) that were verified and kept.
	Salvaged int
	// DroppedBytes is how much torn or non-canonical tail was truncated
	// away.
	DroppedBytes int64
}

// ResumeStream reopens an interrupted streaming scan: it validates the
// checkpoint, verifies the checkpointed output prefix byte-for-byte
// against the recorded hash state, salvages any complete results
// written after the last checkpoint, truncates the torn tail, and
// returns a writer positioned to continue. Feeding the returned writer
// the same scan (same world, same order, same chaos profile) yields a
// final file and digest bit-identical to an uninterrupted run.
//
// Every failure mode is an explicit error — a corrupt checkpoint or a
// mismatched output must abort, never be silently skipped.
func ResumeStream(outPath string, cfg StreamConfig) (*StreamWriter, ResumeInfo, error) {
	var info ResumeInfo
	if cfg.CheckpointPath == "" {
		return nil, info, fmt.Errorf("measure: resume requires a checkpoint path")
	}
	ck, err := LoadCheckpoint(cfg.CheckpointPath)
	if err != nil {
		return nil, info, err
	}
	if ck.ScanKey != cfg.ScanKey {
		return nil, info, fmt.Errorf("measure: checkpoint is for scan %q, not %q: refusing to extend a different scan's output", ck.ScanKey, cfg.ScanKey)
	}
	f, err := os.OpenFile(outPath, os.O_RDWR, 0)
	if err != nil {
		return nil, info, fmt.Errorf("measure: resume: %w", err)
	}
	sw, info, err := resumeOnto(f, ck, cfg)
	if err != nil {
		_ = f.Close()
		return nil, info, err
	}
	return sw, info, nil
}

func resumeOnto(f *os.File, ck *Checkpoint, cfg StreamConfig) (*StreamWriter, ResumeInfo, error) {
	var info ResumeInfo
	st, err := f.Stat()
	if err != nil {
		return nil, info, err
	}
	if st.Size() < ck.Offset {
		return nil, info, fmt.Errorf("measure: resume: output is %d bytes but checkpoint covers %d: output truncated after checkpoint", st.Size(), ck.Offset)
	}

	// Verify the checkpointed prefix byte-for-byte: its fresh SHA-256
	// must equal the sum of the checkpointed midstream state.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, info, err
	}
	fresh := sha256.New()
	if _, err := io.CopyN(fresh, f, ck.Offset); err != nil {
		return nil, info, fmt.Errorf("measure: resume: reading checkpointed prefix: %w", err)
	}
	if !bytes.Equal(fresh.Sum(nil), ck.byteHash.Sum(nil)) {
		return nil, info, fmt.Errorf("measure: resume: output prefix does not match checkpoint byte hash: file modified or checkpoint/output pair mismatched")
	}

	// Anything past the offset was written after the last checkpoint.
	// A complete line that decodes and re-encodes byte-identically is a
	// genuine result the crash didn't get to checkpoint: salvage it,
	// extending both hash states, instead of re-scanning its domain.
	// The first torn or non-canonical line — and everything after it —
	// is truncated away.
	tail, err := io.ReadAll(f)
	if err != nil {
		return nil, info, fmt.Errorf("measure: resume: reading tail: %w", err)
	}
	keep := ck.Offset
	for len(tail) > 0 {
		nl := bytes.IndexByte(tail, '\n')
		if nl < 0 {
			break
		}
		line := tail[:nl+1]
		r, ok := decodeCanonicalLine(line)
		if !ok {
			break
		}
		ck.digest.Add(r)
		ck.byteHash.Write(line)
		ck.Emitted++
		keep += int64(len(line))
		info.Salvaged++
		tail = tail[nl+1:]
	}
	info.DroppedBytes = st.Size() - keep
	if err := f.Truncate(keep); err != nil {
		return nil, info, fmt.Errorf("measure: resume: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		return nil, info, err
	}
	info.Emitted = int(ck.Emitted)

	sw := newStreamWriter(f, cfg, ck.byteHash, ck.digest)
	sw.file, sw.ownsFile = f, true
	sw.offset, sw.next = keep, int(ck.Emitted)

	// Re-checkpoint immediately: the salvage may have advanced past the
	// on-disk record, and a consistent (checkpoint, output) pair should
	// exist before any new result extends it.
	sw.mu.Lock()
	sw.checkpointLocked()
	err = sw.err
	sw.mu.Unlock()
	if err != nil {
		return nil, info, err
	}
	return sw, info, nil
}

// decodeCanonicalLine accepts a JSONL line only if it parses as a
// result and re-encodes to exactly the same bytes — the only tail lines
// a resume may trust without a covering checkpoint.
func decodeCanonicalLine(line []byte) (*DomainResult, bool) {
	var in resultJSON
	if err := json.Unmarshal(line, &in); err != nil {
		return nil, false
	}
	r, err := fromResultJSON(&in)
	if err != nil {
		return nil, false
	}
	var enc jsonlEncoder
	if !bytes.Equal(enc.appendResultJSON(nil, r), line) {
		return nil, false
	}
	return r, true
}
