package bloom

import (
	"slices"
	"testing"

	"terradir/internal/rng"
)

// TestTableMatchesTest checks Table.Hits against each filter's own Test over
// random filters, through a sequence of copy-on-write updates: sizes below,
// at and above the row count, a mixed hash count, and columns replaced,
// cleared, appended and shrunk away. An update must leave the table it copies
// as it was.
func TestTableMatchesTest(t *testing.T) {
	src := rng.New(1)
	filter := func(m uint64, k uint32) *Filter {
		f := New(m, k)
		for n := src.Intn(int(m) / 8); n > 0; n-- {
			f.Add(src.Uint64() % 4096)
		}
		return f
	}
	randFilter := func() *Filter {
		k := uint32(4)
		if src.Intn(8) == 0 {
			k = 6 // probed 4 times by the table, confirmed with Test
		}
		return filter([]uint64{64, 256, 512, 1024, 2048}[src.Intn(5)], k)
	}
	check := func(step string, tab *Table, filters []*Filter) {
		t.Helper()
		hits := make([]uint64, (len(filters)+63)/64)
		for key := uint64(0); key < 4096; key++ {
			tab.Hits(key, hits)
			for c, f := range filters {
				if got := hits[c>>6]>>(c&63)&1 == 1; got != f.Test(key) {
					t.Fatalf("%s: key %d column %d (m=%d k=%d, r=%d k=%d): table says %v", step, key, c, f.mBits, f.k, tab.r, tab.k, got)
				}
			}
			for c := len(filters); c < 64*len(hits); c++ {
				if hits[c>>6]>>(c&63)&1 == 1 {
					t.Fatalf("%s: key %d hits column %d past the %d filters", step, key, c, len(filters))
				}
			}
		}
	}

	filters := make([]*Filter, 70) // two words per row
	for i := range filters {
		filters[i] = randFilter()
	}
	tab := NewTable(nil, filters)
	check("build", tab, filters)
	folded, repeated := 0, 0
	for c := range filters {
		if tab.fold[c>>6]>>(c&63)&1 == 1 {
			folded++
		} else if filters[c].mBits < tab.r {
			repeated++
		}
	}
	if folded == 0 || repeated == 0 {
		t.Fatalf("want folded and repeated columns, got %d and %d at r=%d", folded, repeated, tab.r)
	}

	for step := 0; step < 60; step++ {
		next := slices.Clone(filters)
		var op string
		switch src.Intn(4) {
		case 0:
			op = "replace"
			next[src.Intn(len(next))] = randFilter()
		case 1:
			op = "remove mid-list"
			i := src.Intn(len(next))
			next = append(next[:i], next[i+1:]...)
		case 2:
			op = "append"
			next = append(next, randFilter())
		case 3:
			op = "shrink"
			next = next[:max(1, len(next)-1-src.Intn(8))]
		}
		before := slices.Clone(tab.rows)
		nt := NewTable(tab, next)
		if !slices.Equal(tab.rows, before) {
			t.Fatalf("step %d (%s): the update wrote the table it copied", step, op)
		}
		check(op, tab, filters)
		check(op, nt, next)
		tab, filters = nt, next
	}
	if NewTable(tab, nil) != nil {
		t.Fatal("a table of no filters")
	}
}
