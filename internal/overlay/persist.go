package overlay

// This file wires the persistence tier (internal/persist) into a live node:
// journal hooks on the peer, periodic snapshots taken with the loop parked,
// and replay at construction (DESIGN.md §13).

import (
	"fmt"
	"log"
	"time"

	"terradir/internal/core"
	"terradir/internal/persist"
	"terradir/internal/wire"
)

// partialMutation reports whether kind patches a field of an existing hosted
// entry (as opposed to creating or deleting one): replaying it against a cold
// node needs the on-disk base state materialized first.
func partialMutation(kind core.MutationKind) bool {
	switch kind {
	case core.MutMeta, core.MutData, core.MutMap:
		return true
	}
	return false
}

// PersistOptions enables the durability tier on a node: every hosted-state
// mutation is journaled to a write-ahead log under Dir, periodic snapshots
// bound replay time, and a restart replays snapshot+WAL locally before it
// touches the network.
type PersistOptions struct {
	// Dir is the node's data directory. Required; created if absent. One
	// directory per node — two live nodes sharing one corrupt each other.
	Dir string
	// SnapshotInterval is the period between snapshots (each truncates the
	// WAL segments it covers). Default 30s.
	SnapshotInterval time.Duration
	// SyncPolicy picks the WAL fsync discipline (persist.SyncInterval,
	// persist.SyncAlways, persist.SyncNone). Default SyncInterval.
	SyncPolicy persist.SyncPolicy
	// HotCacheEntries, when positive, bounds the hosted entries the node
	// keeps in memory; the rest of its hosted partition lives in the
	// persistence tier's on-disk node index and is loaded on demand by a
	// loader goroutine (DESIGN.md §14). The namespace a node can host is then
	// bounded by disk, not RAM.
	HotCacheEntries int
}

func (o *PersistOptions) fill() {
	if o.SnapshotInterval <= 0 {
		o.SnapshotInterval = 30 * time.Second
	}
}

// setupPersist opens the store, replays durable state into the peer (the
// loop is not running yet, so direct access is safe) and installs the
// journal hook. Called from NewNode after the peer is built.
func (n *Node) setupPersist(ownerOf func(core.NodeID) core.ServerID) error {
	po := n.opts.Persist
	po.fill()
	if po.Dir == "" {
		return fmt.Errorf("overlay: PersistOptions.Dir is required")
	}
	st, rs, err := persist.Open(po.Dir, persist.Options{
		SyncPolicy: po.SyncPolicy,
		NodeIndex:  po.HotCacheEntries > 0,
		Registry:   n.reg,
		Labels:     []string{"server", fmt.Sprint(n.id)},
	})
	if err != nil {
		return err
	}
	n.store = st
	n.replayed = rs
	// An indexed replay left the snapshot's records on disk instead of
	// materializing them: stream the index into the peer, keeping entries
	// resident until the hot cache fills and marking the rest cold.
	// The index stays acquired through the WAL-tail replay below, which may
	// need it to materialize cold entries hit by partial mutations.
	var ix *persist.Index
	if rs.Indexed {
		if ix = st.AcquireIndex(); ix == nil {
			return fmt.Errorf("overlay: indexed replay but no index generation available")
		}
		defer ix.Release()
		err := ix.EachEntry(func(node core.NodeID, owned, adopted bool, payload []byte) error {
			if n.peer.ResidencyEnabled() && n.peer.ResidentCount() >= po.HotCacheEntries {
				// Adopted ownership is not durable (see ImportHosted): a cold
				// adopted entry counts as a plain replica.
				n.peer.MarkCold(node, owned && !adopted)
				return nil
			}
			mu, err := wire.DecodeHosted(payload)
			if err != nil {
				return err
			}
			n.peer.ImportHosted(mu, ownerOf)
			return nil
		})
		if err != nil {
			return fmt.Errorf("overlay: index restart stream: %w", err)
		}
	}
	// Replay the WAL tail. Owners resolve against the static assignment: the
	// replayed view predates any liveness knowledge, and adopted ownership is
	// deliberately not durable (membership re-adopts from live evidence).
	for i := range rs.Mutations {
		mu := &rs.Mutations[i]
		if ix != nil && n.peer.IsCold(mu.Node) && partialMutation(mu.Kind) {
			// The tail mutates a field of an entry whose base state is still
			// on disk: materialize it first so the partial record applies. A
			// plain import, not InstallFromIndex: that enforces the residency
			// cap at once, and with the resident entries all dirty (as they
			// are after the index stream above) its only clean victim is the
			// entry just installed — the mutation would find nothing to patch
			// and an acknowledged write would be lost. The cap is enforced
			// once, after the whole tail.
			if rec, err := ix.Get(mu.Node); err == nil && rec != nil {
				n.peer.ImportHosted(rec, ownerOf)
			} else if err != nil {
				log.Printf("overlay: server %d index read for tail replay of node %d: %v", n.id, mu.Node, err)
			}
		}
		n.peer.ImportHosted(mu, ownerOf)
	}
	// Tail upserts may have pushed the peer past its caps; entries installed
	// from the index are clean and can drain back to disk immediately.
	n.peer.EnforceResidency()
	// The journal hook fires synchronously from the loop (or a goroutine
	// holding it parked); the store serializes appends internally. Installed
	// after replay so imports do not re-journal themselves.
	n.peer.SetJournal(func(mu *core.HostedMutation) {
		if err := st.Append(mu); err != nil {
			log.Printf("overlay: server %d wal append: %v", n.id, err)
		}
	})
	return nil
}

// flushJournal pushes the store's group-commit buffer to the OS (see
// persist.Store.Flush). The loop calls it once per drained batch and
// maintenance tick, so journal writes amortize across a batch of mutations
// instead of costing one write(2) each. No-op without persistence.
func (n *Node) flushJournal() {
	if n.store == nil {
		return
	}
	if err := n.store.Flush(); err != nil {
		log.Printf("overlay: server %d wal flush: %v", n.id, err)
	}
}

// writeSnapshot captures the full hosted state with the loop parked and
// writes it as an atomic snapshot. Mark runs while the loop is parked — no
// append is in flight, so the rolled WAL segment boundary exactly matches the
// exported state — while the (slow, fsyncing) snapshot write happens after
// the loop resumes.
//
// With the hot cache enabled, "full hosted state" spans memory and disk: the
// parked loop exports resident entries and captures the cold-id set plus the
// clean-epoch generation, then (after the loop resumes) the cold entries are
// merged in from the previous index generation with one sequential scan.
// Only after snapshot and index are durably on disk does the peer complete
// its clean epoch, making the entries the snapshot covered evictable.
func (n *Node) writeSnapshot() {
	var seq, gen uint64
	var markErr error
	var recs []core.HostedMutation
	var coldIDs []core.NodeID
	residency := false
	ok := n.inspect(false, func(p *core.Peer) {
		seq, markErr = n.store.Mark()
		recs = p.ExportHosted()
		if residency = p.ResidencyEnabled(); residency {
			gen = p.MarkCleanEpoch()
			coldIDs = p.ColdIDs()
		}
	})
	if !ok {
		return
	}
	if markErr != nil {
		log.Printf("overlay: server %d snapshot mark: %v", n.id, markErr)
		return
	}
	if !n.mergeColdRecords(&recs, coldIDs) {
		return // WAL segments stay; the previous snapshot still covers us
	}
	var inc uint64
	if n.membership != nil {
		inc = n.membership.Incarnation()
	}
	if err := n.store.WriteSnapshot(seq, inc, recs); err != nil {
		log.Printf("overlay: server %d snapshot write: %v", n.id, err)
		return
	}
	if !residency {
		return
	}
	// Snapshot + index are durable: the state captured while parked is clean
	// (evictable). Entries mutated since stay dirty — they wait for the next
	// snapshot.
	n.toLoop(envelope{fn: func() {
		n.peer.CompleteCleanEpoch(gen)
		n.peer.EnforceResidency()
	}})
}

// mergeColdRecords appends the durable state of every cold (disk-only) node
// to recs, read from the current index generation in one sequential pass. It
// reports false — abandoning the snapshot — if any cold entry cannot be
// produced: writing a snapshot that silently lacks hosted state would turn
// the next restart into data loss.
func (n *Node) mergeColdRecords(recs *[]core.HostedMutation, coldIDs []core.NodeID) bool {
	want := make(map[core.NodeID]struct{}, len(coldIDs))
	for _, nd := range coldIDs {
		want[nd] = struct{}{}
	}
	if len(want) == 0 {
		return true
	}
	ix := n.store.AcquireIndex()
	if ix == nil {
		log.Printf("overlay: server %d snapshot: %d cold entries but no index generation", n.id, len(want))
		return false
	}
	defer ix.Release()
	err := ix.EachEntry(func(node core.NodeID, owned, adopted bool, payload []byte) error {
		if _, isCold := want[node]; !isCold {
			return nil
		}
		mu, err := wire.DecodeHosted(payload)
		if err != nil {
			return err
		}
		*recs = append(*recs, *mu)
		delete(want, node)
		return nil
	})
	if err != nil {
		log.Printf("overlay: server %d snapshot cold merge: %v", n.id, err)
		return false
	}
	if len(want) > 0 {
		log.Printf("overlay: server %d snapshot: %d cold entries missing from index generation %d", n.id, len(want), ix.Seq())
		return false
	}
	return true
}

// snapshotLoop writes a snapshot every SnapshotInterval until the node
// stops. There is deliberately no final snapshot at Stop: a crash and a
// clean stop must both recover purely from snapshot+WAL replay.
func (n *Node) snapshotLoop() {
	defer close(n.snapDone)
	t := time.NewTicker(n.opts.Persist.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.writeSnapshot()
		}
	}
}

// Store exposes the node's persistence store (nil when persistence is
// disabled). Tests use it to force snapshots; production code should not
// need it.
func (n *Node) Store() *persist.Store { return n.store }

// ReplayedState reports what the node recovered at construction (nil when
// persistence is disabled).
func (n *Node) ReplayedState() *persist.ReplayState { return n.replayed }
