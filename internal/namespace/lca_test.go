package namespace

import (
	"testing"

	"terradir/internal/rng"
)

// TestLCADistanceHandComputed pins LCA and Distance to values worked out by
// hand on three shapes: balanced, skewed and a single path.
func TestLCADistanceHandComputed(t *testing.T) {
	// Balanced binary, 4 levels, ids in breadth-first order:
	//            0
	//       1         2
	//     3   4     5   6
	//    7 8 9 10 11 12 13 14
	balanced := NewBalanced(2, 4)
	// Skewed: a spine 0-1-3-5 with a leaf hanging off each spine node, and a
	// fan of three under the deepest.
	//   0 ─ 1 ─ 3 ─ 5 ─ {7, 8, 9}
	//   │   │   └ 6
	//   │   └ 4
	//   └ 2
	skewed, err := NewFromParents(
		[]int32{-1, 0, 0, 1, 1, 3, 3, 5, 5, 5},
		[]string{"", "a", "b", "c", "d", "e", "f", "g", "h", "i"})
	if err != nil {
		t.Fatal(err)
	}
	path := chainTree(6) // 0-1-2-3-4-5

	cases := []struct {
		name      string
		tree      *Tree
		a, b, lca NodeID
		dist      int
	}{
		{"balanced cousins", balanced, 7, 10, 1, 4},
		{"balanced siblings", balanced, 11, 12, 5, 2},
		{"balanced across root", balanced, 8, 13, 0, 6},
		{"balanced ancestor", balanced, 2, 14, 2, 2},
		{"balanced root", balanced, 0, 9, 0, 3},
		{"balanced self", balanced, 6, 6, 6, 0},
		{"skewed fan", skewed, 7, 9, 5, 2},
		{"skewed deep to shallow leaf", skewed, 8, 2, 0, 5},
		{"skewed spine leaf", skewed, 6, 9, 3, 3},
		{"skewed uncle", skewed, 4, 7, 1, 4},
		{"skewed ancestor", skewed, 1, 6, 1, 2},
		{"path ends", path, 0, 5, 0, 5},
		{"path middle", path, 4, 2, 2, 2},
		{"path self", path, 3, 3, 3, 0},
	}
	for _, c := range cases {
		for _, swap := range []bool{false, true} {
			a, b := c.a, c.b
			if swap {
				a, b = b, a
			}
			if got := c.tree.LCA(a, b); got != c.lca {
				t.Errorf("%s: LCA(%d,%d) = %d, want %d", c.name, a, b, got, c.lca)
			}
			if got := c.tree.Distance(a, b); got != c.dist {
				t.Errorf("%s: Distance(%d,%d) = %d, want %d", c.name, a, b, got, c.dist)
			}
		}
	}
}

// chainTree builds a degenerate path tree (worst-case depth).
func chainTree(n int) *Tree {
	var b Builder
	cur := b.AddRoot("")
	for i := 1; i < n; i++ {
		cur = b.AddChild(cur, "c")
	}
	return b.Build()
}

func TestLCAChainTree(t *testing.T) {
	tr := chainTree(100)
	if tr.MaxDepth() != 99 {
		t.Fatalf("depth = %d", tr.MaxDepth())
	}
	// In a chain, LCA(a,b) is the shallower node.
	if got := tr.LCA(10, 80); got != 10 {
		t.Fatalf("chain LCA = %d", got)
	}
	if d := tr.Distance(10, 80); d != 70 {
		t.Fatalf("chain distance = %d", d)
	}
}

func TestLCASingleNode(t *testing.T) {
	var b Builder
	b.AddRoot("solo")
	tr := b.Build()
	if tr.LCA(0, 0) != 0 || tr.Distance(0, 0) != 0 {
		t.Fatal("singleton LCA/distance wrong")
	}
}

func TestLCAIdentityAndAncestor(t *testing.T) {
	tr := NewBalanced(3, 5)
	src := rng.New(3)
	for i := 0; i < 1000; i++ {
		a := NodeID(src.Intn(tr.Len()))
		if tr.LCA(a, a) != a {
			t.Fatalf("LCA(%d,%d) != self", a, a)
		}
		if p := tr.Parent(a); p != Invalid {
			if tr.LCA(a, p) != p {
				t.Fatalf("LCA(child,parent) != parent for %d", a)
			}
		}
	}
}

// TestPreorderSpan checks the numbering's defining property on assorted
// shapes: the numbers are a permutation, and b's number falls in a's span
// exactly when a is an ancestor of b.
func TestPreorderSpan(t *testing.T) {
	trees := map[string]*Tree{
		"balanced2x7": NewBalanced(2, 7),
		"balanced5x3": NewBalanced(5, 3),
		"chain":       chainTree(40),
		"single":      chainTree(1),
		"fs":          BuildFileSystem(rng.New(4), FileSystemParams{TargetNodes: 400, MaxDepth: 9, DirFraction: 0.3, MeanDirFanout: 5}),
	}
	for name, tr := range trees {
		n := tr.Len()
		seen := make([]bool, n)
		for a := NodeID(0); int(a) < n; a++ {
			first, end := tr.PreorderSpan(a)
			if first < 0 || int(end) > n || first >= end || seen[first] {
				t.Fatalf("%s: node %d has span [%d,%d) of %d, or shares its number", name, a, first, end, n)
			}
			seen[first] = true
			for b := NodeID(0); int(b) < n; b++ {
				num, _ := tr.PreorderSpan(b)
				if in := first <= num && num < end; in != tr.IsAncestor(a, b) {
					t.Fatalf("%s: %d numbered %d, span of %d is [%d,%d), IsAncestor %v", name, b, num, a, first, end, !in)
				}
			}
		}
		if first, end := tr.PreorderSpan(0); first != 0 || int(end) != n {
			t.Fatalf("%s: root span [%d,%d), want [0,%d)", name, first, end, n)
		}
	}
}

func BenchmarkLCA(b *testing.B) {
	tr := NewBalanced(2, 15)
	src := rng.New(1)
	n := tr.Len()
	pairs := make([][2]NodeID, 1024)
	for i := range pairs {
		pairs[i] = [2]NodeID{NodeID(src.Intn(n)), NodeID(src.Intn(n))}
	}
	b.ResetTimer()
	var sink NodeID
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		sink = tr.LCA(p[0], p[1])
	}
	_ = sink
}
