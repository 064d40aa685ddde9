package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"terradir/internal/core"
	"terradir/internal/wire"
)

func indexOpts() Options {
	o := quietOpts()
	o.NodeIndex = true
	return o
}

// testRecords returns n mutations with ascending unique node ids (stride 3,
// so Get sees gaps between present nodes).
func testRecords(n int) []core.HostedMutation {
	recs := make([]core.HostedMutation, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, *testMutation(i * 3))
	}
	return recs
}

// roundTrip normalizes a record through the wire codec, so expectations
// compare decoder output with decoder output.
func roundTrip(t *testing.T, mu *core.HostedMutation) *core.HostedMutation {
	t.Helper()
	out, err := wire.DecodeHosted(wire.AppendHosted(nil, mu))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const n = 150 // crosses two directory strides
	recs := testRecords(n)
	path, err := buildIndex(dir, 42, 7, recs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := openIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Retire()
	if ix.Seq() != 42 || ix.Incarnation() != 7 || ix.Count() != n {
		t.Fatalf("header: seq=%d inc=%d count=%d", ix.Seq(), ix.Incarnation(), ix.Count())
	}
	for i := range recs {
		got, err := ix.Get(recs[i].Node)
		if err != nil {
			t.Fatal(err)
		}
		want := roundTrip(t, &recs[i])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: got %+v want %+v", recs[i].Node, got, want)
		}
	}
	for _, absent := range []core.NodeID{1, 2, 4, core.NodeID(3*n + 1), -5} {
		if got, err := ix.Get(absent); err != nil || got != nil {
			t.Fatalf("absent node %d: got %+v err %v", absent, got, err)
		}
	}
	var seen []core.NodeID
	err = ix.EachEntry(func(node core.NodeID, owned, adopted bool, payload []byte) error {
		i := int(node) / 3
		if owned != (i*3%2 == 0) || adopted {
			t.Fatalf("node %d flags: owned=%v adopted=%v", node, owned, adopted)
		}
		if _, derr := wire.DecodeHosted(payload); derr != nil {
			t.Fatalf("node %d payload: %v", node, derr)
		}
		seen = append(seen, node)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("EachEntry visited %d entries, want %d", len(seen), n)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("EachEntry out of order at %d: %v", i, seen[i-1:i+1])
		}
	}
}

func TestIndexEmpty(t *testing.T) {
	dir := t.TempDir()
	path, err := buildIndex(dir, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := openIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Retire()
	if ix.Count() != 0 {
		t.Fatalf("count %d", ix.Count())
	}
	if got, err := ix.Get(3); err != nil || got != nil {
		t.Fatalf("empty index Get: %+v, %v", got, err)
	}
	if err := ix.EachEntry(func(core.NodeID, bool, bool, []byte) error {
		t.Fatal("EachEntry on empty index")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildIndexRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	outOfOrder := []core.HostedMutation{*testMutation(5), *testMutation(2)}
	if _, err := buildIndex(dir, 1, 1, outOfOrder); err == nil {
		t.Fatal("out-of-order records accepted")
	}
	del := *testMutation(1)
	del.Kind = core.MutDelete
	if _, err := buildIndex(dir, 1, 1, []core.HostedMutation{del}); err == nil {
		t.Fatal("non-upsert record accepted")
	}
}

func TestSortHostedRecords(t *testing.T) {
	recs := []core.HostedMutation{*testMutation(4), *testMutation(1), *testMutation(4), *testMutation(2)}
	recs[0].Weight = 99 // first occurrence of node 4 must win
	out := sortHostedRecords(recs)
	if len(out) != 3 {
		t.Fatalf("deduped to %d records, want 3", len(out))
	}
	if out[0].Node != 1 || out[1].Node != 2 || out[2].Node != 4 {
		t.Fatalf("order: %d %d %d", out[0].Node, out[1].Node, out[2].Node)
	}
	if out[2].Weight != 99 {
		t.Fatalf("dedupe kept the later duplicate (weight %v)", out[2].Weight)
	}
}

// openIndexed opens the store with the node index enabled and returns the
// fully applied hosted state: indexed (or materialized) snapshot records with
// the WAL-tail mutations folded on top.
func openIndexed(t *testing.T, dir string) (*ReplayState, map[core.NodeID]core.HostedMutation) {
	t.Helper()
	st, rs, err := Open(dir, indexOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	state := map[core.NodeID]core.HostedMutation{}
	if rs.Indexed {
		ix := st.AcquireIndex()
		if ix == nil {
			t.Fatal("Indexed replay but no index available")
		}
		err := ix.EachEntry(func(node core.NodeID, owned, adopted bool, payload []byte) error {
			mu, err := wire.DecodeHosted(payload)
			if err != nil {
				return err
			}
			state[node] = *mu
			return nil
		})
		ix.Release()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, mu := range rs.Mutations {
		switch mu.Kind {
		case core.MutUpsert:
			state[mu.Node] = mu
		case core.MutDelete:
			delete(state, mu.Node)
		}
	}
	return rs, state
}

// seedIndexedStore writes n snapshotted records plus tail updates: an upsert
// of a new node, an overwrite of node 0, and a delete of node 3 — all landing
// in the WAL after the snapshot barrier.
func seedIndexedStore(t *testing.T, dir string, n int) {
	t.Helper()
	st, _, err := Open(dir, indexOpts())
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(n)
	for i := range recs {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := st.Mark()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(seq, 9, recs); err != nil {
		t.Fatal(err)
	}
	tail := testMutation(3*n + 1)
	if err := st.Append(tail); err != nil {
		t.Fatal(err)
	}
	over := testMutation(0)
	over.Meta.Attrs["name"] = "rewritten"
	if err := st.Append(over); err != nil {
		t.Fatal(err)
	}
	del := &core.HostedMutation{Kind: core.MutDelete, Node: 3}
	if err := st.Append(del); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreIndexedReplay(t *testing.T) {
	dir := t.TempDir()
	const n = 20
	seedIndexedStore(t, dir, n)

	rs, state := openIndexed(t, dir)
	if !rs.Indexed {
		t.Fatal("replay did not use the index")
	}
	if rs.IndexedRecords != n {
		t.Fatalf("IndexedRecords = %d, want %d", rs.IndexedRecords, n)
	}
	// Indexed replays carry their snapshot records on disk, not in
	// Mutations; HasState must still report prior state even when every
	// sequence field is zero, or a restarted peer skips its incarnation bump.
	if !(&ReplayState{IndexedRecords: rs.IndexedRecords}).HasState() {
		t.Fatal("HasState ignores indexed records")
	}
	if len(rs.Mutations) != 3 {
		t.Fatalf("tail holds %d mutations, want 3 (snapshot records must stay on disk)", len(rs.Mutations))
	}
	if rs.Incarnation != 9 {
		t.Fatalf("incarnation %d", rs.Incarnation)
	}
	if len(state) != n+1-1 { // n snapshotted + 1 new - 1 deleted
		t.Fatalf("recovered %d entries, want %d", len(state), n)
	}
	if state[0].Meta.Attrs["name"] != "rewritten" {
		t.Fatal("tail overwrite of node 0 lost")
	}
	if _, ok := state[3]; ok {
		t.Fatal("tail delete of node 3 lost")
	}
	if _, ok := state[core.NodeID(3*n+1)]; !ok {
		t.Fatal("tail upsert lost")
	}
}

func TestStoreRebuildsMissingIndex(t *testing.T) {
	dir := t.TempDir()
	seedIndexedStore(t, dir, 10)
	_, want := openIndexed(t, dir)

	ixfs := listSeqFiles(dir, idxPrefix, idxSuffix)
	if len(ixfs) != 1 {
		t.Fatalf("want 1 index file, have %d", len(ixfs))
	}
	if err := os.Remove(ixfs[0].path); err != nil {
		t.Fatal(err)
	}
	rs, got := openIndexed(t, dir)
	if !rs.Indexed {
		t.Fatal("missing index not rebuilt from snapshot")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt state differs:\n got %+v\nwant %+v", got, want)
	}
	if len(listSeqFiles(dir, idxPrefix, idxSuffix)) != 1 {
		t.Fatal("rebuild did not recreate the index file")
	}
}

func TestStoreRejectsStaleSeqIndex(t *testing.T) {
	dir := t.TempDir()
	seedIndexedStore(t, dir, 10)
	_, want := openIndexed(t, dir)

	// Replace the index with a generation whose header seq disagrees with
	// the snapshot it sits beside (a half-finished retire could leave this).
	ixfs := listSeqFiles(dir, idxPrefix, idxSuffix)
	stale := t.TempDir()
	path, err := buildIndex(stale, ixfs[0].seq+100, 1, testRecords(2))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ixfs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, got := openIndexed(t, dir)
	if !rs.Indexed {
		t.Fatal("stale index not rebuilt")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stale-seq index served wrong state")
	}
}

func TestSnapshotRetiresOldIndexGenerations(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, indexOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := testRecords(5)
	for i := range recs {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := st.Mark()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(seq, 1, recs); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testMutation(100)); err != nil {
		t.Fatal(err)
	}
	recs = append(recs, *testMutation(100))
	seq2, err := st.Mark()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(seq2, 1, recs); err != nil {
		t.Fatal(err)
	}
	ixfs := listSeqFiles(dir, idxPrefix, idxSuffix)
	if len(ixfs) != 1 || ixfs[0].seq != seq2 {
		t.Fatalf("index generations after retire: %+v (want only seq %d)", ixfs, seq2)
	}
	ix := st.AcquireIndex()
	if ix == nil || ix.Seq() != seq2 {
		t.Fatalf("current index is %+v, want seq %d", ix, seq2)
	}
	ix.Release()
}

// TestIndexCorruptionByteByByte mirrors TestTornTailByteByByte for the index:
// flip every byte of the index file in turn (and truncate it at every length)
// and assert that Open detects the damage, rebuilds the generation from the
// snapshot, and recovers state identical to the pristine run. The index is a
// cache — no single corrupt byte may change replayed state.
func TestIndexCorruptionByteByByte(t *testing.T) {
	dir := t.TempDir()
	const n = 12
	seedIndexedStore(t, dir, n)
	_, want := openIndexed(t, dir)

	ixfs := listSeqFiles(dir, idxPrefix, idxSuffix)
	if len(ixfs) != 1 {
		t.Fatalf("want 1 index file, have %d", len(ixfs))
	}
	pristine, err := os.ReadFile(ixfs[0].path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(ixfs[0].path, mutate(append([]byte(nil), pristine...)), 0o644); err != nil {
			t.Fatal(err)
		}
		rs, got := openIndexed(t, dir)
		if !rs.Indexed {
			t.Fatal("corrupt index did not fall back to rebuild-from-snapshot")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("corrupt index changed recovered state:\n got %+v\nwant %+v", got, want)
		}
	}

	t.Run("bit-flip-every-byte", func(t *testing.T) {
		for i := 0; i < len(pristine); i++ {
			check(t, func(d []byte) []byte {
				d[i] ^= 0x40
				return d
			})
		}
	})
	t.Run("truncate-every-length", func(t *testing.T) {
		for cut := 0; cut < len(pristine); cut++ {
			check(t, func(d []byte) []byte {
				return d[:cut]
			})
		}
	})
	t.Run("missing-footer-and-growth", func(t *testing.T) {
		check(t, func(d []byte) []byte {
			return append(d, 0xde, 0xad) // trailing garbage desyncs the footer
		})
	})
}

// FuzzIndexDecode asserts openIndex never panics on arbitrary file bytes —
// hostile length prefixes, corrupt CRCs, inconsistent directories — and that
// any file it does accept serves exactly Count() entries in ascending order
// through both EachEntry and Get.
func FuzzIndexDecode(f *testing.F) {
	seedDir, err := os.MkdirTemp("", "idxfuzz")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(seedDir)
	recs := make([]core.HostedMutation, 0, 70)
	for i := 0; i < 70; i++ { // crosses one directory stride
		recs = append(recs, *testMutation(i * 2))
	}
	path, err := buildIndex(seedDir, 3, 1, recs)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:idxHeaderLen])    // header only, no footer
	f.Add(valid[:len(valid)-7])    // torn footer
	f.Add(valid[:idxHeaderLen+11]) // torn first entry
	hostileLen := append([]byte(nil), valid...)
	hostileLen[idxHeaderLen] = 0xff // first entry length → huge
	hostileLen[idxHeaderLen+1] = 0xff
	hostileLen[idxHeaderLen+2] = 0xff
	f.Add(hostileLen)
	zeroLen := append([]byte(nil), valid...)
	zeroLen[idxHeaderLen] = 0 // first entry length → below idxMinEntry
	zeroLen[idxHeaderLen+1] = 0
	zeroLen[idxHeaderLen+2] = 0
	zeroLen[idxHeaderLen+3] = 0
	f.Add(zeroLen)
	hugeCount := append([]byte(nil), valid...)
	hugeCount[24] = 0xff // header count field (CRC will catch it)
	hugeCount[25] = 0xff
	f.Add(hugeCount)
	f.Add([]byte{})
	f.Add([]byte(idxMagic))
	f.Add([]byte("TDIDX999 not an index"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("%s%016x%s", idxPrefix, 1, idxSuffix))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := openIndex(path)
		if err != nil {
			return // rejected: the rebuild-from-snapshot path handles it
		}
		defer ix.Retire()
		var prev core.NodeID
		seen := 0
		err = ix.EachEntry(func(node core.NodeID, owned, adopted bool, payload []byte) error {
			if seen > 0 && node <= prev {
				t.Fatalf("validated index yields out-of-order node %d after %d", node, prev)
			}
			if _, derr := wire.DecodeHosted(payload); derr != nil {
				t.Fatalf("validated index entry fails decode: %v", derr)
			}
			prev = node
			seen++
			return nil
		})
		if err != nil {
			t.Fatalf("validated index failed EachEntry: %v", err)
		}
		if seen != ix.Count() {
			t.Fatalf("EachEntry yielded %d entries, header says %d", seen, ix.Count())
		}
		for _, node := range []core.NodeID{0, 1, prev, prev + 1, -1} {
			if _, err := ix.Get(node); err != nil {
				t.Fatalf("validated index failed Get(%d): %v", node, err)
			}
		}
	})
}
