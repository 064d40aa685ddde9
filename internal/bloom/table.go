package bloom

import (
	"math"
	"math/bits"
	"slices"
)

// Table is a bit-sliced (transposed) copy of a list of filters, BitFunnel's
// signature file (Goodwin et al., SIGIR 2017): one row per probe position in
// [0, r), one bit per filter, so the filters that may contain a key are the
// AND of k rows. r is half the lower-median filter size and k the smallest
// hash count, both derived from the filters. Sizes are powers of two that mask
// the probe positions, so a filter of r bits or fewer, repeated down the rows,
// is exact. A larger filter is folded (its r-bit segments ORed) and one with
// more hashes is probed k times: either answers a superset of its Test, so its
// column is flagged and each hit on it confirmed by that Test. Hits equals
// Test, column by column. A Table is never written after NewTable returns it.
type Table struct {
	r    uint64 // rows, a power of two
	k    uint32
	rows []uint64 // row i is rows[i*w : (i+1)*w], w = len(fold)
	fold []uint64 // one row: the columns Hits confirms with Test
	cols []*Filter
}

// NewTable returns the table whose column i is filters[i] (none nil), or nil
// for no filters; it keeps filters, which the caller must not write. When
// prev, which may be nil, has the same geometry, its rows are copied and only
// the columns whose filter pointer changed are rewritten; prev is not written.
func NewTable(prev *Table, filters []*Filter) *Table {
	if len(filters) == 0 {
		return nil
	}
	t, words := &Table{k: math.MaxUint32, cols: filters}, (len(filters)+63)/64
	sizes := make([]uint64, len(filters))
	for i, f := range filters {
		sizes[i], t.k = f.mBits, min(t.k, f.k)
	}
	slices.Sort(sizes)
	t.r = sizes[(len(sizes)-1)/2] / 2
	t.rows, t.fold = make([]uint64, t.r*uint64(words)), make([]uint64, words)
	if prev != nil && prev.r == t.r && prev.k == t.k && len(prev.fold) == words {
		copy(t.rows, prev.rows)
		copy(t.fold, prev.fold)
	} else {
		prev = &Table{}
	}
	for c := range max(len(filters), len(prev.cols)) {
		if c < len(prev.cols) && (c >= len(filters) || prev.cols[c] != filters[c]) {
			t.clear(c)
		}
		if c < len(filters) && (c >= len(prev.cols) || prev.cols[c] != filters[c]) {
			t.write(c, filters[c])
		}
	}
	return t
}

// write sets column c, which is empty, to filter f.
func (t *Table) write(c int, f *Filter) {
	w, bit := c>>6, uint64(1)<<(c&63)
	if f.mBits > t.r || f.k > t.k {
		t.fold[w] |= bit
	}
	for i, word := range f.bits {
		for ; word != 0; word &= word - 1 {
			pos := uint64(i<<6 + bits.TrailingZeros64(word))
			// One row for a folded filter; every mBits-th for a repeated one.
			for row := pos & (t.r - 1); row < t.r; row += f.mBits {
				t.rows[row*uint64(len(t.fold))+uint64(w)] |= bit
			}
		}
	}
}

// clear empties column c.
func (t *Table) clear(c int) {
	w, bit := c>>6, uint64(1)<<(c&63)
	t.fold[w] &^= bit
	for i := w; i < len(t.rows); i += len(t.fold) {
		t.rows[i] &^= bit
	}
}

// Hits sets dst, one bit per column (len(filters)+63)/64 words long, to the
// columns whose filter's Test(key) is true.
func (t *Table) Hits(key uint64, dst []uint64) {
	h1, h2 := hashes(key)
	w := uint64(len(t.fold))
	copy(dst, t.rows[(h1&(t.r-1))*w:][:w])
	for i := uint64(1); i < uint64(t.k); i++ {
		row := t.rows[((h1+i*h2)&(t.r-1))*w:][:w]
		for j := range dst {
			dst[j] &= row[j]
		}
	}
	for j, f := range t.fold {
		for b := dst[j] & f; b != 0; b &= b - 1 {
			if c := j<<6 + bits.TrailingZeros64(b); !t.cols[c].Test(key) {
				dst[j] &^= 1 << (c & 63)
			}
		}
	}
}
