package core

// This file is the peer's durability surface: a mutation journal hook that
// streams hosted-state changes to the persistence tier (internal/persist),
// plus export/import of full hosted records for snapshots and restart replay.
// Everything here follows the peer's single-threaded discipline — the journal
// callback fires inside the owning event loop, and ImportHosted/ExportHosted
// are only called while the loop is parked (restart, snapshot barrier).

// MutationKind classifies one hosted-state mutation in the durability
// journal. Values are part of the on-disk WAL format — append only, never
// renumber.
type MutationKind uint8

const (
	// MutUpsert creates or fully refreshes a hosted entry (replica install,
	// fresh adoption, snapshot export). The record carries the complete
	// durable state of the node.
	MutUpsert MutationKind = iota + 1
	// MutDelete removes a hosted replica (eviction).
	MutDelete
	// MutAdopt promoted an already-hosted entry to provisional ownership.
	// No longer written; replays as a no-op (adoption is not durable).
	MutAdopt
	// MutRelease demoted an adopted entry back to a plain replica. No longer
	// written; replays as a no-op (replay never restores an adoption to
	// release).
	MutRelease
	// MutMeta replaces a hosted node's metadata.
	MutMeta
	// MutData replaces an owned node's application data.
	MutData
	// MutMap replaces a hosted node's self-map (only durable map changes are
	// journaled: replication acknowledgements adding advertised hosts).
	MutMap
)

// HostedMutation is one journal record: a hosted-state change expressed with
// enough context to be replayed on an empty peer. Which fields are meaningful
// depends on Kind; MutUpsert carries everything.
type HostedMutation struct {
	Kind    MutationKind
	Node    NodeID
	Owned   bool
	Adopted bool
	HasData bool
	Weight  float64
	Meta    Meta
	Map     NodeMap
	Data    []byte
}

// SetJournal installs the hosted-state mutation hook. The callback fires
// synchronously from the peer's execution context at every durable mutation;
// it must not call back into the peer and must not retain mu or its slices
// after returning (records reference live peer state, not copies). Call
// before message handling starts; nil disables journaling.
func (p *Peer) SetJournal(fn func(mu *HostedMutation)) { p.journal = fn }

// journalUpsert emits a full-state record for hn.
func (p *Peer) journalUpsert(hn *hostedNode) {
	p.markDirty(hn)
	if p.journal == nil {
		return
	}
	p.journal(&HostedMutation{
		Kind:    MutUpsert,
		Node:    hn.id,
		Owned:   hn.owned,
		Adopted: hn.adopted,
		HasData: hn.hasData,
		Weight:  hn.weight,
		Meta:    hn.meta,
		Map:     hn.selfMap,
		Data:    hn.data,
	})
}

// journalKind emits a partial record of the given kind for node.
func (p *Peer) journalKind(kind MutationKind, node NodeID) {
	if p.journal == nil {
		return
	}
	p.journal(&HostedMutation{Kind: kind, Node: node})
}

// ExportHosted snapshots every hosted node as a replayable MutUpsert record.
// All fields are deep copies: the persistence tier encodes and fsyncs them
// off the event loop, after the snapshot barrier has released.
func (p *Peer) ExportHosted() []HostedMutation {
	p.foldFastTouches()
	out := make([]HostedMutation, 0, len(p.hostedList))
	for _, hn := range p.hostedList {
		var data []byte
		if hn.data != nil {
			data = append([]byte(nil), hn.data...)
		}
		out = append(out, HostedMutation{
			Kind:    MutUpsert,
			Node:    hn.id,
			Owned:   hn.owned,
			Adopted: hn.adopted,
			HasData: hn.hasData,
			Weight:  p.decayedWeight(hn),
			Meta:    hn.meta.Clone(),
			Map:     hn.selfMap.Clone(),
			Data:    data,
		})
	}
	return out
}

// ImportHosted applies one replayed journal record, rebuilding hosted state
// after a restart. It mirrors the live mutation paths but skips their
// statistics, telemetry, hooks and journaling — replay must not re-journal
// itself or skew counters.
//
// Provisional (adopted) ownership is deliberately not durable: it derives
// from a liveness view that is stale by the time we restart, so adopted
// entries come back as plain replicas (the membership layer re-adopts if the
// original owner is still dead). MutUpsert therefore strips the adopted/owned
// flags of adopted entries, and the MutAdopt and MutRelease records older
// builds wrote replay as no-ops.
//
// It reports whether the record changed peer state.
func (p *Peer) ImportHosted(rec *HostedMutation, ownerOf func(NodeID) ServerID) bool {
	switch rec.Kind {
	case MutUpsert:
		owned, hasData, data := rec.Owned, rec.HasData, rec.Data
		if rec.Adopted {
			owned, hasData, data = false, false, nil
		}
		hn, ok := p.hosted[rec.Node]
		if !ok {
			hn = &hostedNode{id: rec.Node}
			p.addHosted(hn)
			p.initNeighbors(hn, ownerOf)
		}
		if hn.owned && !owned {
			p.ownedCount--
		} else if !hn.owned && owned {
			p.ownedCount++
		}
		hn.owned = owned
		hn.adopted = false
		hn.hasData = hasData
		if data != nil {
			hn.data = append([]byte(nil), data...)
		} else {
			hn.data = nil
		}
		hn.meta = rec.Meta.Clone()
		m := p.editSelfMap(hn)
		*m = rec.Map.Clone()
		p.ensureSelf(m)
		hn.weight = rec.Weight
		hn.weightT = p.env.Now()
		hn.lastUsed = p.env.Now()
		hn.ref = true
		p.markDirty(hn)
		if p.cold != nil {
			p.cold.clear(rec.Node) // materialized: no longer disk-only
		}
		p.digestDirty = true
		return true
	case MutDelete:
		hn, ok := p.hosted[rec.Node]
		if !ok || hn.owned {
			if !ok && p.IsCold(rec.Node) && !p.cold.hasOwned(rec.Node) {
				// The record exists only on disk; the delete wins over the
				// indexed state.
				p.cold.clear(rec.Node)
				p.digestDirty = true
				return true
			}
			return false
		}
		p.dropHosted(hn)
		p.releaseNeighbors(hn)
		if p.cold != nil {
			p.resident.bytes -= int64(hn.size)
		}
		p.digestDirty = true
		return true
	case MutMeta:
		hn, ok := p.hosted[rec.Node]
		if !ok {
			return false
		}
		hn.meta = rec.Meta.Clone()
		p.markDirty(hn)
		return true
	case MutData:
		hn, ok := p.hosted[rec.Node]
		if !ok || !hn.owned {
			return false
		}
		hn.hasData = true
		hn.data = append([]byte(nil), rec.Data...)
		p.markDirty(hn)
		return true
	case MutMap:
		hn, ok := p.hosted[rec.Node]
		if !ok {
			return false
		}
		m := p.editSelfMap(hn)
		*m = rec.Map.Clone()
		p.ensureSelf(m)
		p.markDirty(hn)
		return true
	}
	return false
}
