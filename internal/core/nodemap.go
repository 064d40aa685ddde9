package core

import (
	"slices"

	"terradir/internal/rng"
)

// NodeMap associates a node with a bounded, possibly stale and incomplete
// set of servers hosting it (§3.7). The first NumAdvertised entries are
// advertisement-pinned: they describe recently created replicas and survive
// merging ahead of regular entries, so traffic diverts quickly to new
// replicas.
//
// Invariants maintained by all mutators:
//   - len(Servers) <= the Msize in force,
//   - entries are unique,
//   - 0 <= NumAdvertised <= len(Servers).
type NodeMap struct {
	Servers       []ServerID
	NumAdvertised int
}

// Len returns the number of entries.
func (m *NodeMap) Len() int { return len(m.Servers) }

// Contains reports whether s is in the map.
func (m *NodeMap) Contains(s ServerID) bool {
	for _, v := range m.Servers {
		if v == s {
			return true
		}
	}
	return false
}

// Clone returns a deep copy. Messages must carry clones, never aliases.
func (m *NodeMap) Clone() NodeMap {
	return NodeMap{
		Servers:       append([]ServerID(nil), m.Servers...),
		NumAdvertised: m.NumAdvertised,
	}
}

// SingleServerMap returns a map containing just s.
func SingleServerMap(s ServerID) NodeMap {
	return NodeMap{Servers: []ServerID{s}}
}

// AddRegular inserts s as a regular (non-advertised) entry if absent and
// capacity allows; it reports whether the map changed.
func (m *NodeMap) AddRegular(s ServerID, msize int) bool {
	if m.Contains(s) || len(m.Servers) >= msize {
		return false
	}
	m.Servers = append(m.Servers, s)
	return true
}

// AddAdvertised inserts s at the front of the advertised prefix (newest
// first). If s is already present it is promoted. If the map is full, the
// last regular entry is displaced; if all entries are advertised, the oldest
// advertisement is displaced.
func (m *NodeMap) AddAdvertised(s ServerID, msize int) {
	// Remove any existing occurrence.
	for i, v := range m.Servers {
		if v == s {
			if i < m.NumAdvertised {
				m.NumAdvertised--
			}
			m.Servers = append(m.Servers[:i], m.Servers[i+1:]...)
			break
		}
	}
	if len(m.Servers) >= msize {
		// Displace: prefer dropping the last regular entry; otherwise the
		// oldest advertisement (the last advertised entry).
		m.Servers = m.Servers[:len(m.Servers)-1]
		if m.NumAdvertised > len(m.Servers) {
			m.NumAdvertised = len(m.Servers)
		}
	}
	m.Servers = append(m.Servers, 0)
	copy(m.Servers[1:], m.Servers)
	m.Servers[0] = s
	m.NumAdvertised++
	if m.NumAdvertised > msize {
		m.NumAdvertised = msize
	}
}

// Remove deletes s if present, reporting whether it was found.
func (m *NodeMap) Remove(s ServerID) bool {
	for i, v := range m.Servers {
		if v == s {
			if i < m.NumAdvertised {
				m.NumAdvertised--
			}
			m.Servers = append(m.Servers[:i], m.Servers[i+1:]...)
			return true
		}
	}
	return false
}

// Demote moves all advertised entries to regular status (used once an
// advertisement has aged out of "recent").
func (m *NodeMap) Demote() { m.NumAdvertised = 0 }

// mergeStack sizes the fixed arrays Merge builds its lists in; only combined
// maps larger than it spill to the heap.
const mergeStack = 32

// Merge folds incoming into m under the paper's merge rule (§3.7): the
// advertised entries of both maps are preferred (incoming first — they are
// newer), and the remaining slots are filled with a uniform random choice
// from the leftover union. keep is an optional predicate: entries for which
// keep returns false are dropped entirely (digest-based map filtering). m is
// written only when the result differs from it, which Merge reports.
func (m *NodeMap) Merge(incoming *NodeMap, msize int, src *rng.Source, keep func(ServerID) bool) (changed bool) {
	type cand struct {
		s   ServerID
		adv bool
	}
	// Maps here are tiny (≤ Msize entries each side), so linear scans beat
	// any hash structure, and stack arrays keep a merge off the heap — this
	// runs on every path-entry absorption.
	var candBuf [mergeStack]cand
	var advBuf, regBuf [mergeStack]ServerID
	cands := candBuf[:0]
	add := func(s ServerID, adv bool) {
		for i := range cands {
			if cands[i].s == s {
				// Promote to advertised if any source says so.
				cands[i].adv = cands[i].adv || adv
				return
			}
		}
		if keep != nil && !keep(s) {
			return
		}
		cands = append(cands, cand{s, adv})
	}
	for i, s := range incoming.Servers {
		add(s, i < incoming.NumAdvertised)
	}
	for i, s := range m.Servers {
		add(s, i < m.NumAdvertised)
	}
	// Partition: advertised (in encounter order: incoming's newest first),
	// then the rest shuffled.
	adv, reg := advBuf[:0], regBuf[:0]
	for _, c := range cands {
		if c.adv {
			adv = append(adv, c.s)
		} else {
			reg = append(reg, c.s)
		}
	}
	if len(adv) > msize {
		adv = adv[:msize]
	}
	room := msize - len(adv)
	if room < len(reg) {
		src.Shuffle(len(reg), func(i, j int) { reg[i], reg[j] = reg[j], reg[i] })
		reg = reg[:room]
	}
	if m.NumAdvertised == len(adv) && len(m.Servers) == len(adv)+len(reg) &&
		slices.Equal(m.Servers[:len(adv)], adv) && slices.Equal(m.Servers[len(adv):], reg) {
		return false
	}
	m.Servers = append(append(m.Servers[:0], adv...), reg...)
	m.NumAdvertised = len(adv)
	return true
}

// set makes m a copy of o, reusing m's buffer.
func (m *NodeMap) set(o *NodeMap) {
	m.Servers = append(m.Servers[:0], o.Servers...)
	m.NumAdvertised = o.NumAdvertised
}

// Pick returns a uniformly random entry passing the keep predicate and not
// equal to exclude, or NoServer if none qualifies. Digest-refuted entries
// are never selected (§3.7 map filtering is strict); callers that get
// NoServer prune the map and fall back to their next-best candidate.
func (m *NodeMap) Pick(src *rng.Source, exclude ServerID, keep func(ServerID) bool) ServerID {
	n := 0
	var chosen ServerID = NoServer
	for _, s := range m.Servers {
		if s == exclude || (keep != nil && !keep(s)) {
			continue
		}
		n++
		// Reservoir sample of size 1 for a uniform choice in one pass.
		if src.Intn(n) == 0 {
			chosen = s
		}
	}
	return chosen
}

// Prune removes entries rejected by keep, returning how many were removed.
func (m *NodeMap) Prune(keep func(ServerID) bool) int {
	if keep == nil {
		return 0
	}
	out := m.Servers[:0]
	adv := 0
	for i, s := range m.Servers {
		if keep(s) {
			if i < m.NumAdvertised {
				adv++
			}
			out = append(out, s)
		}
	}
	removed := len(m.Servers) - len(out)
	m.Servers = out
	m.NumAdvertised = adv
	return removed
}

// Truncate enforces msize, dropping regular entries first.
func (m *NodeMap) Truncate(msize int) {
	if len(m.Servers) <= msize {
		return
	}
	m.Servers = m.Servers[:msize]
	if m.NumAdvertised > msize {
		m.NumAdvertised = msize
	}
}
