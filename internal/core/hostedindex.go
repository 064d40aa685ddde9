package core

import (
	"math"
	"slices"

	"terradir/internal/namespace"
)

// hostedIndex answers, for the resident hosted set, "the shallowest hosted
// node in the subtree of a, earliest in hosting order among equals" in
// O(log hosted): what makes the closest-hosted search cost the destination's
// depth, not the hosted count (closest). It also finds a hosted node's place
// in the hosting order by id (position), so a view needs no id map beside it.
//
// Two flat arrays, 20 bytes per hosted node. num holds the hosted nodes'
// preorder numbers, ascending, so a subtree is a contiguous run of it
// (namespace.Tree.PreorderSpan). min is a bottom-up segment tree over that
// order: leaf min[len(num)+i] is depth<<32 | hosting position of the node
// numbered num[i], inner node j the smaller of 2j and 2j+1, so keys compare
// by depth first and hosting position second.
//
// addHosted, dropHosted and demoteToCold keep it in step with hostedList: a
// change moves array tails and rebuilds the inner nodes, O(hosted) sequential
// work, no allocation once the arrays have their capacity.
type hostedIndex struct {
	num []int32
	min []uint64
}

const posMask = 1<<32 - 1

// add indexes id, hosted at position pos of the hosting order.
func (x *hostedIndex) add(t *namespace.Tree, id NodeID, pos int) {
	n := len(x.num)
	first, _ := t.PreorderSpan(id)
	i, _ := slices.BinarySearch(x.num, first)
	x.num = append(x.num, 0)
	copy(x.num[i+1:], x.num[i:])
	x.num[i] = first
	// The leaves move from min[n:2n] to min[n+1:2n+2] with a gap at i: the run
	// after the gap first, so that the run before it does not overwrite it.
	x.min = append(x.min, 0, 0)
	copy(x.min[n+i+2:], x.min[n+i:2*n])
	copy(x.min[n+1:], x.min[n:n+i])
	x.min[n+1+i] = uint64(t.Depth(id))<<32 | uint64(pos)
	x.rebuild()
}

// remove unindexes id, which was hosted at position pos. The hosting order has
// closed the gap either by moving its last node, moved, into pos, or — moved
// is Invalid — by shifting everything after pos down by one.
func (x *hostedIndex) remove(t *namespace.Tree, id NodeID, pos int, moved NodeID) {
	n := len(x.num)
	i := x.find(t, id)
	copy(x.num[i:], x.num[i+1:])
	x.num = x.num[:n-1]
	// The reverse of add: leaves to min[n-1:2n-2], the run before i first.
	copy(x.min[n-1:], x.min[n:n+i])
	copy(x.min[n-1+i:], x.min[n+i+1:2*n])
	x.min = x.min[:2*n-2]
	leaves := x.min[n-1:]
	if moved != namespace.Invalid {
		j := x.find(t, moved)
		leaves[j] = leaves[j]&^posMask | uint64(pos)
	} else {
		for j, k := range leaves {
			if k&posMask > uint64(pos) {
				leaves[j] = k - 1
			}
		}
	}
	x.rebuild()
}

// position returns the hosting position of id, or -1 when id is not indexed —
// or not a node of t at all: ids arrive off the wire.
func (x *hostedIndex) position(t *namespace.Tree, id NodeID) int {
	if id < 0 || int(id) >= t.Len() {
		return -1
	}
	first, _ := t.PreorderSpan(id)
	i, found := slices.BinarySearch(x.num, first)
	if !found {
		return -1
	}
	return int(x.min[len(x.num)+i] & posMask)
}

// find returns the position in num of id, or the one it would be inserted at.
func (x *hostedIndex) find(t *namespace.Tree, id NodeID) int {
	first, _ := t.PreorderSpan(id)
	i, _ := slices.BinarySearch(x.num, first)
	return i
}

func (x *hostedIndex) rebuild() {
	for j := len(x.num) - 1; j > 0; j-- {
		x.min[j] = min(x.min[2*j], x.min[2*j+1])
	}
}

// clone returns a copy sharing nothing with x, for a published view.
func (x *hostedIndex) clone() hostedIndex {
	return hostedIndex{num: append([]int32(nil), x.num...), min: append([]uint64(nil), x.min...)}
}

// rangeMin returns the smallest key among the nodes numbered num[l:r], or
// MaxUint64 for an empty range.
func (x *hostedIndex) rangeMin(l, r int) uint64 {
	m := uint64(math.MaxUint64)
	n := len(x.num)
	for l, r = l+n, r+n; l < r; l, r = l>>1, r>>1 {
		if l&1 != 0 {
			m = min(m, x.min[l])
			l++
		}
		if r&1 != 0 {
			r--
			m = min(m, x.min[r])
		}
	}
	return m
}

// closest returns the hosting position of the hosted node nearest dest in
// namespace distance — the earliest in hosting order among equals — and that
// distance; pos is -1 when nothing is hosted.
//
// It walks dest's ancestors a_0 = dest, a_1, …: a hosted node h that meets
// dest's root path at a_k lies at distance depth(h) − depth(a_k) + k, so the
// shallowest hosted node in subtree(a_k) is level k's candidate. A node of
// that subtree that meets the path lower down is over-estimated, but it was a
// candidate at its true distance at its own, earlier level: an over-estimate
// never wins, and level k need only ask about subtree(a_k) outside
// subtree(a_k−1) — two flanks of num, empty at most levels. Candidates
// compare as distance<<32 | hosting position, so ties resolve to hosting
// order within a level and across; a_k itself would tie at k, so the walk
// goes on while k does not exceed the best distance. (DESIGN.md §10.)
func (x *hostedIndex) closest(t *namespace.Tree, dest NodeID) (pos, dist int) {
	n := len(x.num)
	if n == 0 {
		return -1, 0
	}
	best := uint64(math.MaxUint64)
	lo := x.find(t, dest)
	hi := lo // num[lo:hi] is the part of the hosted set already asked about
	depth := t.Depth(dest)
	for k, a := 0, dest; a != namespace.Invalid && uint64(k) <= best>>32; k, a = k+1, t.Parent(a) {
		first, end := t.PreorderSpan(a)
		l, r := lo, hi
		if l > 0 && x.num[l-1] >= first {
			l, _ = slices.BinarySearch(x.num[:l], first)
		}
		if r < n && x.num[r] < end {
			i, _ := slices.BinarySearch(x.num[r:], end)
			r += i
		}
		if key := min(x.rangeMin(l, lo), x.rangeMin(hi, r)); key != math.MaxUint64 {
			d := int(key>>32) - (depth - k) + k // depth(h) − depth(a_k) + k
			best = min(best, uint64(d)<<32|key&posMask)
		}
		lo, hi = l, r
	}
	return int(best & posMask), int(best >> 32)
}
