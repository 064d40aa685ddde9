// Package persist is the peer-local durability tier: a segmented,
// CRC32C-framed append-only write-ahead log of hosted-state mutations plus
// periodic atomic snapshots, so a restarted peer rebuilds its hosted
// namespace state from local disk and only reconciles deltas over the wire.
//
// Layout of a data directory:
//
//	wal-<startseq:016x>.log   WAL segment; first record sequence in the name
//	snap-<seq:016x>.snap      snapshot covering every mutation with seq ≤ seq
//
// A WAL segment is an 8-byte magic header followed by records framed as
//
//	u32 payload length | u32 CRC32C(payload) | payload
//	payload = u64 seq | u8 record kind | body
//
// where the body of a mutation record is the wire-codec hosted-record layout
// (wire.AppendHosted) and the body of an incarnation record is a u64. A
// snapshot file is magic, covered seq, incarnation, record count, then
// length-prefixed wire-encoded hosted records, closed by a whole-file CRC32C.
//
// Crash safety: snapshots are written to a .tmp file, fsynced, and renamed;
// replay keeps the newest snapshot that verifies. WAL replay stops cleanly at
// the first truncated or corrupt record — a kill -9 mid-append loses at most
// the torn tail record, never anything before it — and truncates the tail so
// the next run appends to a clean log.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/telemetry"
	"terradir/internal/wire"
)

const (
	walMagic  = "TDWAL001"
	snapMagic = "TDSNP001"

	walPrefix  = "wal-"
	walSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"

	// MaxRecord bounds one WAL record payload, protecting replay against
	// corrupt or hostile length prefixes (mirrors wire.MaxFrame).
	MaxRecord = 1 << 20

	recMutation    byte = 1
	recIncarnation byte = 2

	recHeaderLen = 8 // u32 length + u32 crc

	// flushThreshold bounds the group-commit buffer: appendLocked writes the
	// pending records through once they exceed this, so an event-loop batch
	// that journals heavily cannot grow the buffer without bound between flushes.
	flushThreshold = 64 << 10

	// maxPendingCap releases an unusually large pending buffer (a MaxRecord
	// append can briefly grow it past a megabyte) back to the allocator after
	// the flush instead of pinning it for the store's lifetime.
	maxPendingCap = 2 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when the WAL is fsynced.
type SyncPolicy uint8

const (
	// SyncInterval fsyncs at most once per Options.SyncInterval, amortizing
	// the fsync cost across appends; a crash loses at most one interval's
	// records. The default.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append: no acknowledged mutation is ever
	// lost, at per-append fsync cost.
	SyncAlways
	// SyncNone never fsyncs the WAL explicitly; the OS flushes at its own
	// pace. A machine crash can lose recent records, a process crash cannot.
	SyncNone
)

// ParseSyncPolicy maps the -wal-sync flag values always|interval|none.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("persist: unknown sync policy %q (want always|interval|none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	}
	return "interval"
}

// Options configures a Store. The zero value is usable.
type Options struct {
	SyncPolicy   SyncPolicy
	SyncInterval time.Duration // default 100ms (SyncInterval policy only)
	SegmentBytes int64         // WAL segment roll size, default 64 MiB
	Registry     *telemetry.Registry
	Labels       []string // label k/v pairs for registered metrics
	Logf         func(format string, args ...any)
	// NodeIndex maintains an on-disk sorted node index beside each snapshot
	// (see index.go): WriteSnapshot builds one from the same records, Open
	// prefers a valid index over materializing the snapshot (ReplayState.
	// Indexed), and AcquireIndex serves point reads for the overlay's cold
	// hosted entries.
	NodeIndex bool
}

func (o *Options) fill() {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
}

// ReplayState is what Open recovered from disk.
type ReplayState struct {
	// Mutations is the replayed record stream in apply order: the snapshot's
	// full-state records first, then every WAL mutation after it.
	Mutations []core.HostedMutation
	// Incarnation is the highest persisted membership incarnation.
	Incarnation uint64
	// SnapshotSeq is the sequence the loaded snapshot covers (0 if none).
	SnapshotSeq uint64
	// LastSeq is the last WAL sequence applied.
	LastSeq uint64
	// Truncated reports that replay hit a torn or corrupt record and stopped
	// there (pre-tail records are all applied).
	Truncated bool
	// Indexed reports that a valid on-disk node index covers the snapshot
	// (Options.NodeIndex): Mutations then holds only the WAL tail, and the
	// snapshot's full-state records are read through Store.AcquireIndex
	// instead of being materialized in memory.
	Indexed bool
	// IndexedRecords is the indexed snapshot's record count (Indexed only).
	IndexedRecords int
}

// HasState reports whether the directory held any prior peer state. An
// indexed replay streams its snapshot records through the index rather than
// Mutations, so IndexedRecords must count too — otherwise a peer restarting
// from a seq-0 snapshot would be mistaken for stateless and lose its
// delta-only rejoin.
func (rs *ReplayState) HasState() bool {
	return len(rs.Mutations) > 0 || rs.IndexedRecords > 0 ||
		rs.LastSeq > 0 || rs.SnapshotSeq > 0 || rs.Incarnation > 0
}

// Store is the open durability tier of one peer. Append may be called from
// several goroutines concurrently (records are serialized under an internal
// mutex); Mark/WriteSnapshot/Close coordinate with appends the same
// way.
//
// Appends group-commit: records are framed into a pending buffer and written
// through with one write(2) per Flush (the event loop flushes once per drained
// batch), per flushThreshold overflow, or per append under SyncAlways — so
// the WAL write amplification scales with batches, not mutations, while
// SyncAlways still means fsync-per-record and SyncInterval still loses at
// most one interval to a machine crash.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	segStart uint64 // first seq the open segment may contain
	segSize  int64  // includes pending (not yet written) record bytes
	seq      uint64
	lastSync time.Time
	closed   bool
	// pending is the group-commit buffer: appends frame records into it and
	// Flush writes them through with one write(2) per batch. It is drained by
	// Flush, by appendLocked once it exceeds flushThreshold, and by every
	// operation that needs the file current (Mark, rolls, Close).
	pending []byte

	// idx is the current node-index generation (Options.NodeIndex; nil when
	// disabled or not yet built). Swapped by WriteSnapshot, read-referenced by
	// loaders via AcquireIndex.
	idx atomic.Pointer[Index]

	walAppends  *telemetry.Counter
	walBytes    *telemetry.Counter
	replayRecs  *telemetry.Counter
	snapshots   *telemetry.Counter
	truncations *telemetry.Counter
	snapDur     *telemetry.Histogram
}

// Open opens (creating if needed) the durability directory, replays the
// newest valid snapshot plus the WAL tail, and leaves the store ready to
// append. The returned ReplayState holds the recovered mutation stream.
func Open(dir string, opts Options) (*Store, *ReplayState, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, opts: opts}
	if reg := opts.Registry; reg != nil {
		s.walAppends = reg.Counter("terradir_persist_wal_appends_total",
			"WAL records appended.", opts.Labels...)
		s.walBytes = reg.Counter("terradir_persist_wal_bytes_total",
			"Bytes written to the WAL (including record framing).", opts.Labels...)
		s.replayRecs = reg.Counter("terradir_persist_replay_records_total",
			"Records replayed from snapshot+WAL at startup.", opts.Labels...)
		s.snapshots = reg.Counter("terradir_persist_snapshots_total",
			"Snapshots written.", opts.Labels...)
		s.truncations = reg.Counter("terradir_persist_wal_truncations_total",
			"Torn or corrupt WAL tails truncated during replay.", opts.Labels...)
		s.snapDur = reg.Histogram("terradir_persist_snapshot_duration_seconds",
			"Wall time to encode, write and fsync one snapshot.",
			telemetry.HistogramOpts{Min: 1e-5, Max: 1e3, BucketsPerDecade: 5},
			opts.Labels...)
	}
	rs, err := s.replay()
	if err != nil {
		return nil, nil, err
	}
	s.seq = rs.LastSeq
	if rs.SnapshotSeq > s.seq {
		s.seq = rs.SnapshotSeq
	}
	if err := s.openSegmentLocked(s.seq + 1); err != nil {
		return nil, nil, err
	}
	if s.replayRecs != nil {
		s.replayRecs.Add(uint64(len(rs.Mutations)))
	}
	return s, rs, nil
}

// Append journals one hosted-state mutation into the group-commit buffer
// (written through at the next Flush). Safe for concurrent use.
func (s *Store) Append(mu *core.HostedMutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(recMutation, func(b []byte) []byte {
		return wire.AppendHosted(b, mu)
	})
}

// AppendIncarnation journals the membership incarnation so refutation state
// survives a restart.
func (s *Store) AppendIncarnation(inc uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(recIncarnation, func(b []byte) []byte {
		return binary.LittleEndian.AppendUint64(b, inc)
	}); err != nil {
		return err
	}
	// Journaled from the membership goroutine, not the event loop: no batch
	// drain group-commits on its behalf, so write it through immediately.
	return s.flushSyncLocked()
}

func (s *Store) appendLocked(kind byte, enc func([]byte) []byte) error {
	if s.closed {
		return fmt.Errorf("persist: store closed")
	}
	base := len(s.pending)
	b := append(s.pending, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc, patched below
	b = binary.LittleEndian.AppendUint64(b, s.seq+1)
	b = append(b, kind)
	b = enc(b)
	payload := b[base+recHeaderLen:]
	if len(payload) > MaxRecord {
		s.pending = b[:base]
		return fmt.Errorf("persist: record of %d bytes exceeds MaxRecord", len(payload))
	}
	binary.LittleEndian.PutUint32(b[base:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[base+4:], crc32.Checksum(payload, castagnoli))
	s.pending = b
	rec := len(b) - base
	s.seq++
	s.segSize += int64(rec)
	if s.walAppends != nil {
		s.walAppends.Inc()
		s.walBytes.Add(uint64(rec))
	}
	if s.opts.SyncPolicy == SyncAlways {
		// No acknowledged mutation may ever be lost: write through and fsync
		// per append, exactly as before group commit.
		if err := s.flushLocked(); err != nil {
			return err
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("persist: wal sync: %w", err)
		}
	} else if len(s.pending) >= flushThreshold {
		if err := s.flushSyncLocked(); err != nil {
			return err
		}
	}
	if s.segSize >= s.opts.SegmentBytes {
		return s.rollLocked()
	}
	return nil
}

// flushLocked writes the pending group-commit buffer through to the segment
// file with one write(2). No fsync.
func (s *Store) flushLocked() error {
	if len(s.pending) == 0 {
		return nil
	}
	if _, err := s.f.Write(s.pending); err != nil {
		return fmt.Errorf("persist: wal append: %w", err)
	}
	if cap(s.pending) > maxPendingCap {
		s.pending = nil
	} else {
		s.pending = s.pending[:0]
	}
	return nil
}

// flushSyncLocked is flushLocked plus the interval sync policy: under
// SyncInterval an fsync happens here at most once per Options.SyncInterval,
// so "-wal-sync interval" keeps its bound of losing at most one interval's
// records to a machine crash.
func (s *Store) flushSyncLocked() error {
	if err := s.flushLocked(); err != nil {
		return err
	}
	if s.opts.SyncPolicy == SyncInterval {
		if now := time.Now(); now.Sub(s.lastSync) >= s.opts.SyncInterval {
			if err := s.f.Sync(); err != nil {
				return fmt.Errorf("persist: wal sync: %w", err)
			}
			s.lastSync = now
		}
	}
	return nil
}

// Flush group-commits buffered records: one write(2) for everything appended
// since the last flush, then the interval sync policy. The event loop calls
// it once per drained batch and maintenance tick, so a record never waits in
// user space longer than the batch that journaled it.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.pending) == 0 {
		return nil
	}
	return s.flushSyncLocked()
}

// Mark rolls the WAL to a fresh segment and returns the last sequence the
// closed segments cover. The caller snapshots peer state at this barrier
// point and later calls WriteSnapshot with the returned sequence; appends
// that land after Mark go to the new segment and survive the truncation.
func (s *Store) Mark() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("persist: store closed")
	}
	if s.segSize > int64(len(walMagic)) {
		if err := s.rollLocked(); err != nil {
			return 0, err
		}
	}
	return s.seq, nil
}

func (s *Store) rollLocked() error {
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("persist: wal sync: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("persist: wal close: %w", err)
	}
	s.f = nil
	return s.openSegmentLocked(s.seq + 1)
}

func (s *Store) openSegmentLocked(start uint64) error {
	path := filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", walPrefix, start, walSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: open wal segment: %w", err)
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return fmt.Errorf("persist: wal header: %w", err)
	}
	s.f = f
	s.segStart = start
	s.segSize = int64(len(walMagic))
	s.lastSync = time.Now()
	syncDir(s.dir)
	return nil
}

// WriteSnapshot writes an atomic snapshot of records covering every mutation
// with sequence ≤ seq (from Mark), then retires the WAL segments and older
// snapshots it supersedes. Called off the event loops; appends proceed
// concurrently into the post-Mark segment.
//
// With Options.NodeIndex, the records are sorted and deduplicated in place
// and a companion index generation is built from the same bytes and swapped
// live; an index build failure fails the snapshot (nothing is retired, so
// the WAL still covers every record).
func (s *Store) WriteSnapshot(seq, incarnation uint64, records []core.HostedMutation) error {
	start := time.Now()
	if s.opts.NodeIndex {
		records = sortHostedRecords(records)
	}
	b := make([]byte, 0, 64+len(records)*64)
	b = append(b, snapMagic...)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint64(b, incarnation)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(records)))
	for i := range records {
		lenAt := len(b)
		b = binary.LittleEndian.AppendUint32(b, 0) // patched below
		b = wire.AppendHosted(b, &records[i])
		binary.LittleEndian.PutUint32(b[lenAt:], uint32(len(b)-lenAt-4))
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))

	final := filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: snapshot rename: %w", err)
	}
	syncDir(s.dir)
	if s.opts.NodeIndex {
		path, err := buildIndex(s.dir, seq, incarnation, records)
		if err != nil {
			return err
		}
		ix, err := openIndex(path)
		if err != nil {
			return fmt.Errorf("persist: reopen built index: %w", err)
		}
		s.setIndex(ix)
	}
	s.retire(seq)
	if s.snapshots != nil {
		s.snapshots.Inc()
		s.snapDur.Observe(time.Since(start).Seconds())
	}
	return nil
}

// retire removes WAL segments fully covered by the snapshot at seq (their
// records all have sequence ≤ seq because Mark rolled the segment at the
// barrier), snapshots older than it, and superseded index generations.
func (s *Store) retire(seq uint64) {
	s.mu.Lock()
	open := s.segStart
	s.mu.Unlock()
	for _, seg := range listSeqFiles(s.dir, walPrefix, walSuffix) {
		if seg.seq <= seq && seg.seq != open {
			os.Remove(seg.path)
		}
	}
	for _, sn := range listSeqFiles(s.dir, snapPrefix, snapSuffix) {
		if sn.seq < seq {
			os.Remove(sn.path)
		}
	}
	for _, ixf := range listSeqFiles(s.dir, idxPrefix, idxSuffix) {
		if ixf.seq < seq {
			os.Remove(ixf.path)
		}
	}
	syncDir(s.dir)
}

// Close fsyncs and closes the WAL (and the current index generation, once
// its readers drain). Further appends fail.
func (s *Store) Close() error {
	s.setIndex(nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.f == nil {
		return nil
	}
	err := s.flushLocked()
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// LastSeq returns the last assigned WAL sequence.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

type seqFile struct {
	seq  uint64
	path string
}

// listSeqFiles returns the prefix/suffix-matching files in dir sorted by
// their embedded sequence (malformed names are ignored). Sorting by parsed
// sequence — not by name — keeps replay ordered even if names were rewritten
// with different zero-padding.
func listSeqFiles(dir, prefix, suffix string) []seqFile {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []seqFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), "%x", &seq); err != nil {
			continue
		}
		out = append(out, seqFile{seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}
