package core

// This file implements the bounded hosted hot cache behind larger-than-RAM
// hosting (DESIGN.md §14). With residency enabled, the in-memory hosted map
// holds only the hot subset of the namespace partition this peer hosts; the
// rest lives in the persistence tier's on-disk node index and is tracked here
// as a *cold set* — two atomic bitmaps (hosted-cold, owned-cold) sized to the
// namespace. The peer still answers Hosts/OwnedCount/HostedIDs for its full
// partition, so digests, reconciliation and the Frepl bound are unchanged;
// only the bytes are elsewhere.
//
// Eviction is CLOCK second-chance over hostedList, driven by the single
// writer (no locks): every query touch sets a reference bit, the hand clears
// bits until it finds an unreferenced entry. Only *clean* entries are
// evictable — entries whose durable state is in the current index generation.
// Dirty tracking is epoch-based: every durable mutation stamps the entry with
// the current mutation generation; the snapshot barrier captures the
// generation (MarkCleanEpoch) and, only after the snapshot and its index are
// safely on disk, CompleteCleanEpoch clears stamps at or below it. An entry
// mutated after the barrier stays dirty and stays resident — eviction can
// therefore never lose state, at the cost of the dirty set riding in memory
// until the next snapshot. On first boot nothing is clean until the first
// snapshot lands; RAM peaks at the partition size once, then drains to cap.
//
// The cold bitmaps are written by the event loop and read lock-free by the
// routing fast path (RouteSnapshot carries a pointer): a fast-path query for
// a cold destination falls back to the loop, which parks it and hands the
// disk read to the overlay's loader goroutine — the loop never blocks on I/O.

import (
	"math/bits"
	"sync/atomic"

	"terradir/internal/namespace"
)

// coldSet tracks which namespace nodes this peer hosts on disk only. Bits are
// flipped by the owning event loop; Has is safe from any goroutine (the fast
// path consults it through the published snapshot).
type coldSet struct {
	words []atomic.Uint64 // hosted-cold bit per namespace node
	owned []atomic.Uint64 // subset: cold with durable ownership
	n     int

	count      int // loop-owned counters (no concurrent readers)
	ownedCount int
}

func newColdSet(n int) *coldSet {
	w := (n + 63) / 64
	return &coldSet{words: make([]atomic.Uint64, w), owned: make([]atomic.Uint64, w), n: n}
}

func (cs *coldSet) has(id NodeID) bool {
	if cs == nil || id < 0 || int(id) >= cs.n {
		return false
	}
	return cs.words[id>>6].Load()>>(uint(id)&63)&1 != 0
}

func (cs *coldSet) hasOwned(id NodeID) bool {
	if id < 0 || int(id) >= cs.n {
		return false
	}
	return cs.owned[id>>6].Load()>>(uint(id)&63)&1 != 0
}

// set marks id cold (loop only). Reports whether the bit changed.
func (cs *coldSet) set(id NodeID, owned bool) bool {
	if id < 0 || int(id) >= cs.n {
		return false
	}
	w, bit := id>>6, uint64(1)<<(uint(id)&63)
	changed := cs.words[w].Load()&bit == 0
	if changed {
		cs.words[w].Store(cs.words[w].Load() | bit)
		cs.count++
	}
	wasOwned := cs.owned[w].Load()&bit != 0
	if owned && !wasOwned {
		cs.owned[w].Store(cs.owned[w].Load() | bit)
		cs.ownedCount++
	} else if !owned && wasOwned {
		cs.owned[w].Store(cs.owned[w].Load() &^ bit)
		cs.ownedCount--
	}
	return changed
}

// clear unmarks id (loop only). Reports whether the bit was set.
func (cs *coldSet) clear(id NodeID) bool {
	if id < 0 || int(id) >= cs.n {
		return false
	}
	w, bit := id>>6, uint64(1)<<(uint(id)&63)
	if cs.words[w].Load()&bit == 0 {
		return false
	}
	cs.words[w].Store(cs.words[w].Load() &^ bit)
	cs.count--
	if cs.owned[w].Load()&bit != 0 {
		cs.owned[w].Store(cs.owned[w].Load() &^ bit)
		cs.ownedCount--
	}
	return true
}

func (cs *coldSet) ids() []NodeID {
	out := make([]NodeID, 0, cs.count)
	for w := range cs.words {
		word := cs.words[w].Load()
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			out = append(out, NodeID(w<<6+tz))
			word &^= 1 << uint(tz)
		}
	}
	return out
}

// residencyState is the peer's hot-cache bookkeeping, all loop-owned (the
// cold bitmaps themselves are routing-read state: routeView.cold).
type residencyState struct {
	maxEntries int
	maxBytes   int64
	bytes      int64 // approximate resident footprint
	hand       int   // CLOCK cursor into hostedList
	mutGen     uint64
	stuck      bool // a full sweep found no clean victim; wait for the next epoch
	onEvict    func(NodeID)
}

// SetResidency bounds the resident hosted map to maxEntries entries and/or
// maxBytes approximate bytes (≤0 disables that cap; both ≤0 leaves residency
// off). onEvict, when non-nil, observes each demotion to cold. Call from the
// loop context before message handling starts — the overlay enables this only
// when the persistence tier maintains a node index, because evicted entries
// are re-read from it.
func (p *Peer) SetResidency(maxEntries int, maxBytes int64, onEvict func(NodeID)) {
	if maxEntries <= 0 && maxBytes <= 0 {
		return
	}
	p.resident.maxEntries = maxEntries
	p.resident.maxBytes = maxBytes
	p.resident.onEvict = onEvict
	p.cold = newColdSet(p.tree.Len())
	p.pub.stale = true // the view gains its cold set
	for _, hn := range p.hostedList {
		// Nothing resident is in any index generation yet.
		hn.dirtyGen = p.resident.mutGen
		p.resident.bytes += int64(hostedSize(hn))
		hn.size = int32(hostedSize(hn))
	}
}

// ResidencyEnabled reports whether the hosted map is residency-bounded.
func (p *Peer) ResidencyEnabled() bool { return p.cold != nil }

// ResidentCount returns the number of hosted entries currently in memory.
func (p *Peer) ResidentCount() int { return len(p.hostedList) }

// ResidentBytes returns the approximate resident hosted footprint.
func (p *Peer) ResidentBytes() int64 { return p.resident.bytes }

// ColdCount returns the number of hosted nodes currently on disk only.
func (p *Peer) ColdCount() int {
	if p.cold == nil {
		return 0
	}
	return p.cold.count
}

// IsCold reports whether node is hosted by this peer but not resident. Safe
// from any goroutine.
func (p *Peer) IsCold(node NodeID) bool { return p.cold.has(node) }

// ColdIDs returns the cold node ids in ascending order. Loop context.
func (p *Peer) ColdIDs() []NodeID {
	if p.cold == nil {
		return nil
	}
	return p.cold.ids()
}

// MarkCold declares node hosted-on-disk without materializing it — the
// restart path uses this for indexed entries beyond the residency cap. A
// resident entry is demoted first: at restart that entry is the construction
// placeholder (AddOwned with empty state), and the on-disk index — not it —
// holds the node's durable state, so dropping it loses nothing even though
// it is nominally dirty. The owned flag comes from the index record and
// overrides the placeholder's. Loop context.
func (p *Peer) MarkCold(node NodeID, owned bool) {
	if p.cold == nil {
		return
	}
	if _, ok := p.hosted[node]; ok {
		for i, hn := range p.hostedList {
			if hn.id == node {
				p.demoteToCold(i)
				break
			}
		}
	}
	p.cold.set(node, owned)
	p.digestDirty = true
}

// ClearCold drops node from the cold set — the on-disk record turned out to
// be gone (deleted by a WAL-tail mutation after the indexed snapshot). Loop
// context.
func (p *Peer) ClearCold(node NodeID) {
	if p.cold == nil {
		return
	}
	if p.cold.clear(node) {
		p.digestDirty = true
	}
}

// markDirty stamps hn with the current mutation epoch (its durable state is
// newer than the last indexed snapshot) and refreshes its size accounting.
// Durable state includes everything a routing snapshot publishes of hn, so
// the published copy goes stale with it.
func (p *Peer) markDirty(hn *hostedNode) {
	p.staleHosted(hn)
	hn.dirtyGen = p.resident.mutGen
	if p.cold != nil {
		sz := int32(hostedSize(hn))
		p.resident.bytes += int64(sz - hn.size)
		hn.size = sz
	}
}

// MarkCleanEpoch opens a clean epoch at a snapshot barrier: it returns the
// current mutation generation and bumps it, so mutations landing after the
// barrier are distinguishable from state the snapshot captured. Loop context
// (invoked with the loop parked).
func (p *Peer) MarkCleanEpoch() uint64 {
	g := p.resident.mutGen
	p.resident.mutGen++
	return g
}

// CompleteCleanEpoch marks every entry unchanged since MarkCleanEpoch(g) as
// clean — evictable, because the snapshot and its index generation are now
// durably on disk. Never call it for a failed snapshot: cleaning entries the
// index does not hold would let eviction lose them. Loop context.
func (p *Peer) CompleteCleanEpoch(g uint64) {
	for _, hn := range p.hostedList {
		if hn.dirtyGen != 0 && hn.dirtyGen <= g {
			hn.dirtyGen = 0
		}
	}
	p.resident.stuck = false
}

// InstallFromIndex materializes a cold entry from its on-disk index record:
// an ImportHosted upsert that arrives clean (the index is its durable copy),
// referenced (it was just demanded), and digest-neutral (the id was already
// advertised while cold). Loop context; enforces the residency cap after
// installing. It reports whether the record was installed.
func (p *Peer) InstallFromIndex(rec *HostedMutation, ownerOf func(NodeID) ServerID) bool {
	if rec.Kind != MutUpsert || p.cold == nil {
		return false
	}
	wasCold := p.cold.has(rec.Node)
	dirtyBefore := p.digestDirty
	if !p.ImportHosted(rec, ownerOf) {
		return false
	}
	if wasCold {
		// Membership in the hosted set did not change, so the digest is
		// still accurate; don't trigger a rebuild per cold load.
		p.digestDirty = dirtyBefore
	}
	hn := p.hosted[rec.Node]
	hn.dirtyGen = 0
	hn.ref = true
	p.cache.Delete(rec.Node) // the self-map supersedes any cached route
	p.EnforceResidency()
	return true
}

// EnforceResidency evicts clean, unreferenced entries (CLOCK second-chance)
// until the resident set fits the configured caps, or until no evictable
// entry remains (everything dirty or referenced — retried after the next
// clean epoch). Loop context.
func (p *Peer) EnforceResidency() {
	if p.cold == nil || p.resident.stuck {
		return
	}
	for p.overCap() {
		if !p.evictOneCold() {
			return
		}
	}
}

func (p *Peer) overCap() bool {
	if p.resident.maxEntries > 0 && len(p.hostedList) > p.resident.maxEntries {
		return true
	}
	return p.resident.maxBytes > 0 && p.resident.bytes > p.resident.maxBytes
}

// evictOneCold runs the CLOCK hand until it demotes one entry, clearing
// reference bits as it passes. Two full sweeps guarantee termination: the
// first clears every ref bit, so the second finds any clean entry. Adopted
// entries are pinned (provisional ownership is not durable — demoting one
// would silently drop the adoption).
func (p *Peer) evictOneCold() bool {
	n := len(p.hostedList)
	if n == 0 {
		p.resident.stuck = true
		return false
	}
	for scanned := 0; scanned < 2*n; scanned++ {
		if p.resident.hand >= len(p.hostedList) {
			p.resident.hand = 0
		}
		hn := p.hostedList[p.resident.hand]
		if hn.ref {
			hn.ref = false
			p.resident.hand++
			continue
		}
		if hn.dirtyGen == 0 && !hn.adopted {
			p.demoteToCold(p.resident.hand)
			return true
		}
		p.resident.hand++
	}
	p.resident.stuck = true
	return false
}

// demoteToCold moves hostedList[i] to the cold set: the entry's durable state
// is already in the current index generation (it is clean), so memory is
// released without journaling, digest rebuild, or replica-eviction hooks —
// the peer still hosts the node, just not in RAM.
func (p *Peer) demoteToCold(i int) {
	hn := p.hostedList[i]
	last := len(p.hostedList) - 1
	moved := namespace.Invalid
	if i != last {
		p.hostedList[i] = p.hostedList[last]
		moved = p.hostedList[i].id
	}
	p.hostedList[last] = nil
	p.hostedList = p.hostedList[:last]
	p.index.remove(p.tree, hn.id, i, moved)
	delete(p.hosted, hn.id)
	p.pub.members = true
	p.releaseNeighbors(hn)
	if hn.owned {
		p.ownedCount--
	}
	p.cold.set(hn.id, hn.owned)
	p.resident.bytes -= int64(hn.size)
	if p.resident.onEvict != nil {
		p.resident.onEvict(hn.id)
	}
}

// hostedSize approximates one resident entry's memory footprint: struct and
// container overhead plus its variable-length payloads.
func hostedSize(hn *hostedNode) int {
	n := 192 // struct, map slot, list slot, neighbor refs
	n += len(hn.data)
	for k, v := range hn.meta.Attrs {
		n += len(k) + len(v) + 32
	}
	n += (len(hn.selfMap.Servers) + len(hn.neighborIDs)) * 8
	return n
}
