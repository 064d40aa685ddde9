package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"terradir/internal/core"
)

func quietOpts() Options {
	return Options{SyncPolicy: SyncNone, Logf: func(string, ...any) {}}
}

func testMutation(i int) *core.HostedMutation {
	return &core.HostedMutation{
		Kind:    core.MutUpsert,
		Node:    core.NodeID(i),
		Owned:   i%2 == 0,
		HasData: i%2 == 0,
		Weight:  float64(i) / 3,
		Meta:    core.Meta{Version: uint64(i), Attrs: map[string]string{"name": fmt.Sprintf("node-%d", i)}},
		Map:     core.NodeMap{Servers: []core.ServerID{core.ServerID(i % 5), core.ServerID((i + 1) % 5)}},
		Data:    []byte{byte(i), byte(i >> 8)},
	}
}

func mustOpen(t *testing.T, dir string) (*Store, *ReplayState) {
	t.Helper()
	st, rs, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	return st, rs
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, rs := mustOpen(t, dir)
	if rs.HasState() {
		t.Fatalf("fresh dir reports prior state: %+v", rs)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := st.Append(testMutation(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AppendIncarnation(7); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rs2 := mustOpen(t, dir)
	defer st2.Close()
	if !rs2.HasState() || rs2.Truncated {
		t.Fatalf("replay state: %+v", rs2)
	}
	if len(rs2.Mutations) != n {
		t.Fatalf("replayed %d mutations, want %d", len(rs2.Mutations), n)
	}
	if rs2.Incarnation != 7 {
		t.Fatalf("incarnation = %d, want 7", rs2.Incarnation)
	}
	if rs2.LastSeq != n+1 {
		t.Fatalf("last seq = %d, want %d", rs2.LastSeq, n+1)
	}
	for i, mu := range rs2.Mutations {
		want := testMutation(i)
		if mu.Node != want.Node || mu.Owned != want.Owned || mu.Meta.Version != want.Meta.Version ||
			mu.Meta.Attrs["name"] != want.Meta.Attrs["name"] || len(mu.Map.Servers) != 2 ||
			string(mu.Data) != string(want.Data) {
			t.Fatalf("mutation %d mismatch: %+v", i, mu)
		}
	}
}

// TestFlushGroupCommit pins the group-commit contract: appends buffer in
// user space until Flush writes them through in one batch, and a flushed
// batch replays record-for-record.
func TestFlushGroupCommit(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	const n = 3
	for i := 0; i < n; i++ {
		if err := st.Append(testMutation(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs := listSeqFiles(dir, walPrefix, walSuffix)
	if len(segs) != 1 {
		t.Fatalf("want 1 live segment, have %d", len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(walMagic) {
		t.Fatalf("segment holds %d bytes before Flush, want header only (%d)", len(data), len(walMagic))
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(segs[0].path); err != nil {
		t.Fatal(err)
	}
	var recs int
	if _, err := scanSegment(data, func(uint64, byte, []byte) error { recs++; return nil }); err != nil {
		t.Fatal(err)
	}
	if recs != n {
		t.Fatalf("flushed segment replays %d records, want %d", recs, n)
	}
	if err := st.Flush(); err != nil { // empty flush is a no-op
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	for i := 0; i < 10; i++ {
		if err := st.Append(testMutation(i)); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := st.Mark()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 10 {
		t.Fatalf("mark = %d, want 10", seq)
	}
	// Appends after the mark must survive the snapshot's WAL truncation.
	if err := st.Append(testMutation(100)); err != nil {
		t.Fatal(err)
	}
	var recs []core.HostedMutation
	for i := 0; i < 10; i++ {
		recs = append(recs, *testMutation(i))
	}
	if err := st.WriteSnapshot(seq, 3, recs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The pre-mark segment is gone, the snapshot and post-mark tail remain.
	segs := listSeqFiles(dir, walPrefix, walSuffix)
	for _, seg := range segs {
		if seg.seq <= seq {
			t.Fatalf("segment %s not retired by snapshot at %d", seg.path, seq)
		}
	}
	st2, rs := mustOpen(t, dir)
	defer st2.Close()
	if rs.SnapshotSeq != 10 || rs.Incarnation != 3 {
		t.Fatalf("replay state: %+v", rs)
	}
	if len(rs.Mutations) != 11 {
		t.Fatalf("replayed %d mutations, want 11 (10 snapshot + 1 tail)", len(rs.Mutations))
	}
	if last := rs.Mutations[10]; last.Node != 100 {
		t.Fatalf("tail mutation node = %d, want 100", last.Node)
	}
}

// TestTornTailByteByByte is the torn-write hardening test: corrupt the last
// record of the WAL one byte at a time (every offset), and at every
// truncation length inside it. Replay must never panic, must recover all
// pre-tail records, and must truncate the tail so the following run is
// clean.
func TestTornTailByteByByte(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	const n = 5
	for i := 0; i < n; i++ {
		if err := st.Append(testMutation(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs := listSeqFiles(dir, walPrefix, walSuffix)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, have %d", len(segs))
	}
	pristine, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the last record's start offset by walking the record framing.
	lastStart := len(walMagic)
	off := len(walMagic)
	for count := 0; count < n; count++ {
		ln := int(binary.LittleEndian.Uint32(pristine[off:]))
		lastStart = off
		off += recHeaderLen + ln
	}
	if off != len(pristine) {
		t.Fatalf("framing walk ended at %d, file is %d bytes", off, len(pristine))
	}

	check := func(t *testing.T, mutate func([]byte) []byte) {
		t.Helper()
		data := mutate(append([]byte(nil), pristine...))
		if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, rs, err := Open(dir, quietOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
		if !rs.Truncated {
			t.Fatal("corrupt tail not reported as truncated")
		}
		if len(rs.Mutations) != n-1 {
			t.Fatalf("replayed %d mutations, want %d (pre-tail records must survive)", len(rs.Mutations), n-1)
		}
		for i, mu := range rs.Mutations {
			if mu.Node != core.NodeID(i) {
				t.Fatalf("mutation %d is node %d", i, mu.Node)
			}
		}
		// The torn tail was truncated: the segment now replays clean.
		fixed, err := os.ReadFile(segs[0].path)
		if err != nil {
			t.Fatal(err)
		}
		if len(fixed) != lastStart {
			t.Fatalf("truncated segment is %d bytes, want %d", len(fixed), lastStart)
		}
		// Open rolled a fresh live segment; drop it to keep iterations
		// independent.
		for _, seg := range listSeqFiles(dir, walPrefix, walSuffix) {
			if seg.path != segs[0].path {
				os.Remove(seg.path)
			}
		}
	}

	t.Run("bit-flip-every-byte", func(t *testing.T) {
		for i := lastStart; i < len(pristine); i++ {
			check(t, func(d []byte) []byte {
				d[i] ^= 0x40
				return d
			})
		}
	})
	t.Run("truncate-every-length", func(t *testing.T) {
		for cut := lastStart + 1; cut < len(pristine); cut++ {
			check(t, func(d []byte) []byte {
				return d[:cut]
			})
		}
	})
}

// TestReplaySkipsDuplicateAndStaleSeqs covers the half-finished-retire case:
// a stale segment whose records the snapshot already covers, plus records
// duplicated across segments, replay exactly once.
func TestReplaySkipsDuplicateAndStaleSeqs(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	for i := 0; i < 6; i++ {
		if err := st.Append(testMutation(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs := listSeqFiles(dir, walPrefix, walSuffix)
	// Duplicate the whole segment under a later start-seq name: every record
	// in the copy is a duplicate and must be skipped.
	dup := filepath.Join(dir, walPrefix+"00000000000000ff"+walSuffix)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dup, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, rs := mustOpen(t, dir)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rs.Mutations) != 6 {
		t.Fatalf("replayed %d mutations, want 6 (duplicates must be skipped)", len(rs.Mutations))
	}
}

// TestReplayPrefersNewestValidSnapshot: a corrupt newest snapshot falls back
// to the older valid one plus the WAL tail.
func TestReplayPrefersNewestValidSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	for i := 0; i < 4; i++ {
		if err := st.Append(testMutation(i)); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := st.Mark()
	if err != nil {
		t.Fatal(err)
	}
	var recs []core.HostedMutation
	for i := 0; i < 4; i++ {
		recs = append(recs, *testMutation(i))
	}
	if err := st.WriteSnapshot(seq, 1, recs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant a newer but corrupt snapshot.
	bad := filepath.Join(dir, snapPrefix+"00000000000000aa"+snapSuffix)
	good, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), good...)
	corrupted[len(corrupted)/2] ^= 0xff
	if err := os.WriteFile(bad, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, rs := mustOpen(t, dir)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotSeq != seq || len(rs.Mutations) != 4 {
		t.Fatalf("replay state after corrupt newest snapshot: seq=%d mutations=%d", rs.SnapshotSeq, len(rs.Mutations))
	}
}

func TestScanSegmentHostileLengths(t *testing.T) {
	mk := func(ln uint32, payload []byte) []byte {
		b := []byte(walMagic)
		b = binary.LittleEndian.AppendUint32(b, ln)
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
		return append(b, payload...)
	}
	cases := map[string][]byte{
		"zero-length":    mk(0, nil),
		"huge-length":    mk(1<<31, nil),
		"over-maxrecord": mk(MaxRecord+1, nil),
		"short-payload":  mk(100, []byte{1, 2, 3}),
		"no-header":      []byte("XXWAL999"),
		"empty":          nil,
	}
	for name, data := range cases {
		if _, err := scanSegment(data, func(uint64, byte, []byte) error { return nil }); err == nil {
			t.Errorf("%s: scan accepted hostile input", name)
		}
	}
}

// TestSegmentRollAtSizeLimit: an append that takes the open segment to
// segmentBytes rolls the WAL, and replay reads every segment. Rather than
// write 64 MiB per segment, the test counts the open segment as one byte
// short of the limit before every tenth append.
func TestSegmentRollAtSizeLimit(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir)
	const n = 40
	for i := 0; i < n; i++ {
		if i%10 == 9 {
			st.mu.Lock()
			st.segSize = segmentBytes - 1
			st.mu.Unlock()
		}
		if err := st.Append(testMutation(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := listSeqFiles(dir, walPrefix, walSuffix); len(segs) != 5 {
		t.Fatalf("%d segments after four rolls, want 5", len(segs))
	}
	st2, rs := mustOpen(t, dir)
	defer st2.Close()
	if len(rs.Mutations) != n {
		t.Fatalf("replayed %d mutations across segments, want %d", len(rs.Mutations), n)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "none": SyncNone} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
		if got.String() != in {
			t.Fatalf("String() = %q, want %q", got.String(), in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
