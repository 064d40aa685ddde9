// Package namespace implements TerraDir's hierarchical namespace: a rooted
// tree of fully-qualified names ("/university/public/people/..."), with the
// tree-hop distance metric the routing protocol minimizes, lowest-common-
// ancestor queries, and builders for the two namespace families used in the
// paper's evaluation (the perfectly balanced binary tree Ns and a synthetic
// file-system namespace standing in for the Coda trace, Nc).
//
// Nodes are identified by dense integer IDs (NodeID) so that per-node
// protocol state can live in flat slices; names are materialized on demand.
// A Tree is immutable after construction and safe for concurrent readers.
package namespace

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// NodeID identifies a node within a Tree. IDs are dense in [0, Tree.Len()).
// The root always has ID 0.
type NodeID int32

// Invalid is the sentinel for "no node".
const Invalid NodeID = -1

// Tree is an immutable rooted tree namespace.
type Tree struct {
	parent []NodeID
	depth  []int32
	label  []string
	// CSR layout for children: children of node i are
	// childList[childStart[i]:childStart[i+1]].
	childStart []int32
	childList  []NodeID
	maxDepth   int32
	// Preorder numbering (children in childList order): the subtree of node i
	// is exactly the nodes numbered pre[i] .. pre[i]+size[i]-1.
	pre, size []int32
	names     []atomic.Pointer[string] // memoized Name results, filled lazily
}

// Builder incrementally constructs a Tree. The zero value is ready to use;
// the first AddRoot call creates node 0.
type Builder struct {
	parent []NodeID
	label  []string
}

// AddRoot creates the root node (ID 0) with the given label (conventionally
// "" or a logical root name). It panics if called twice.
func (b *Builder) AddRoot(label string) NodeID {
	if len(b.parent) != 0 {
		panic("namespace: AddRoot called twice")
	}
	b.parent = append(b.parent, Invalid)
	b.label = append(b.label, label)
	return 0
}

// AddChild creates a new node under parent and returns its ID. It panics if
// parent does not exist.
func (b *Builder) AddChild(parent NodeID, label string) NodeID {
	if parent < 0 || int(parent) >= len(b.parent) {
		panic(fmt.Sprintf("namespace: AddChild under nonexistent parent %d", parent))
	}
	id := NodeID(len(b.parent))
	b.parent = append(b.parent, parent)
	b.label = append(b.label, label)
	return id
}

// Len returns the number of nodes added so far.
func (b *Builder) Len() int { return len(b.parent) }

// Build finalizes the tree. The builder must not be reused afterwards.
func (b *Builder) Build() *Tree {
	n := len(b.parent)
	if n == 0 {
		panic("namespace: Build on empty builder")
	}
	t := &Tree{
		parent:     b.parent,
		label:      b.label,
		depth:      make([]int32, n),
		childStart: make([]int32, n+1),
		names:      make([]atomic.Pointer[string], n),
	}
	counts := make([]int32, n)
	for i := 1; i < n; i++ {
		counts[b.parent[i]]++
	}
	for i := 0; i < n; i++ {
		t.childStart[i+1] = t.childStart[i] + counts[i]
	}
	t.childList = make([]NodeID, n-1)
	fill := make([]int32, n)
	copy(fill, t.childStart[:n])
	for i := 1; i < n; i++ {
		p := b.parent[i]
		t.childList[fill[p]] = NodeID(i)
		fill[p]++
	}
	// Depths: parents always precede children (AddChild requires an existing
	// parent), so a single forward pass suffices.
	for i := 1; i < n; i++ {
		t.depth[i] = t.depth[b.parent[i]] + 1
		if t.depth[i] > t.maxDepth {
			t.maxDepth = t.depth[i]
		}
	}
	// Subtree sizes accumulate child into parent from the back; preorder
	// numbers are then handed down from each node to its children in order.
	t.pre, t.size = make([]int32, n), make([]int32, n)
	for i := n - 1; i > 0; i-- {
		t.size[i]++
		t.size[b.parent[i]] += t.size[i]
	}
	t.size[0]++
	for i := 0; i < n; i++ {
		next := t.pre[i] + 1
		for _, c := range t.Children(NodeID(i)) {
			t.pre[c] = next
			next += t.size[c]
		}
	}
	return t
}

// Len returns the number of nodes in the tree.
func (t *Tree) Len() int { return len(t.parent) }

// Root returns the root node's ID (always 0).
func (t *Tree) Root() NodeID { return 0 }

// Parent returns the parent of id, or Invalid for the root.
func (t *Tree) Parent(id NodeID) NodeID { return t.parent[id] }

// Children returns the children of id. The returned slice aliases internal
// storage and must not be modified.
func (t *Tree) Children(id NodeID) []NodeID {
	return t.childList[t.childStart[id]:t.childStart[id+1]]
}

// Degree returns the number of children of id.
func (t *Tree) Degree(id NodeID) int {
	return int(t.childStart[id+1] - t.childStart[id])
}

// Depth returns the depth of id (root = 0).
func (t *Tree) Depth(id NodeID) int { return int(t.depth[id]) }

// MaxDepth returns the maximum depth of any node.
func (t *Tree) MaxDepth() int { return int(t.maxDepth) }

// Label returns the path component naming id under its parent.
func (t *Tree) Label(id NodeID) string { return t.label[id] }

// Name materializes the fully qualified name of id, e.g. "/a/b/c". The root
// is "/" if its label is empty, otherwise "/<label>". Names are memoized per
// node (the tree is immutable), so repeat callers — every completed lookup
// names its destination — pay a single atomic load, not a rebuild.
func (t *Tree) Name(id NodeID) string {
	if p := t.names[id].Load(); p != nil {
		return *p
	}
	name := t.buildName(id)
	t.names[id].Store(&name)
	return name
}

func (t *Tree) buildName(id NodeID) string {
	if id == 0 {
		if t.label[0] == "" {
			return "/"
		}
		return "/" + t.label[0]
	}
	var parts []string
	for cur := id; cur != Invalid; cur = t.parent[cur] {
		if !(cur == 0 && t.label[0] == "") {
			parts = append(parts, t.label[cur])
		}
	}
	var sb strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		sb.WriteByte('/')
		sb.WriteString(parts[i])
	}
	return sb.String()
}

// Lookup resolves a fully qualified name to a NodeID, returning Invalid if no
// such node exists. Resolution walks label-by-label from the root.
func (t *Tree) Lookup(name string) NodeID {
	name = strings.TrimSuffix(name, "/")
	if name == "" {
		name = "/"
	}
	if name[0] != '/' {
		return Invalid
	}
	cur := NodeID(0)
	rest := name[1:]
	if t.label[0] != "" {
		// Consume the root label first.
		seg, tail := splitSeg(rest)
		if seg != t.label[0] {
			return Invalid
		}
		rest = tail
	}
	for rest != "" {
		seg, tail := splitSeg(rest)
		next := Invalid
		for _, c := range t.Children(cur) {
			if t.label[c] == seg {
				next = c
				break
			}
		}
		if next == Invalid {
			return Invalid
		}
		cur, rest = next, tail
	}
	return cur
}

func splitSeg(s string) (seg, rest string) {
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// LCA returns the lowest common ancestor of a and b by walking both up to a
// common depth and then in step: O(depth), over two arrays that stay in cache.
func (t *Tree) LCA(a, b NodeID) NodeID {
	for t.depth[a] > t.depth[b] {
		a = t.parent[a]
	}
	for t.depth[b] > t.depth[a] {
		b = t.parent[b]
	}
	for a != b {
		a = t.parent[a]
		b = t.parent[b]
	}
	return a
}

// Distance returns the namespace distance between a and b: the number of
// tree edges on the unique path between them. This is the metric the routing
// procedure makes incremental progress in.
func (t *Tree) Distance(a, b NodeID) int {
	l := t.LCA(a, b)
	return int(t.depth[a] + t.depth[b] - 2*t.depth[l])
}

// PreorderSpan returns the half-open interval of preorder numbers that id's
// subtree occupies; first is id's own number. A node is in the subtree of id
// exactly when its number falls in the interval, which is what lets a set of
// nodes sorted by number answer subtree queries by binary search.
func (t *Tree) PreorderSpan(id NodeID) (first, end int32) {
	return t.pre[id], t.pre[id] + t.size[id]
}

// IsAncestor reports whether a is an ancestor of b (a node is considered its
// own ancestor).
func (t *Tree) IsAncestor(a, b NodeID) bool {
	if t.depth[a] > t.depth[b] {
		return false
	}
	for t.depth[b] > t.depth[a] {
		b = t.parent[b]
	}
	return a == b
}

// AncestorAtDepth returns b's ancestor at depth d, or Invalid if d exceeds
// b's depth.
func (t *Tree) AncestorAtDepth(b NodeID, d int) NodeID {
	if int(t.depth[b]) < d || d < 0 {
		return Invalid
	}
	for int(t.depth[b]) > d {
		b = t.parent[b]
	}
	return b
}

// NextHopToward returns the neighbor of from (its parent or one of its
// children) that lies on the tree path from "from" to "to". It returns
// Invalid if from == to. This is the ideal routing step the protocol's
// neighbor context enables.
func (t *Tree) NextHopToward(from, to NodeID) NodeID {
	if from == to {
		return Invalid
	}
	if t.IsAncestor(from, to) {
		// Descend: the child of from that is an ancestor of to.
		return t.AncestorAtDepth(to, int(t.depth[from])+1)
	}
	return t.parent[from]
}

// Ancestors appends to dst the strict ancestors of id from parent up to the
// root, returning the extended slice.
func (t *Tree) Ancestors(dst []NodeID, id NodeID) []NodeID {
	for cur := t.parent[id]; cur != Invalid; cur = t.parent[cur] {
		dst = append(dst, cur)
	}
	return dst
}

// LevelPopulations returns the number of nodes at each depth, indexed by
// depth 0..MaxDepth().
func (t *Tree) LevelPopulations() []int {
	pop := make([]int, t.maxDepth+1)
	for _, d := range t.depth {
		pop[d]++
	}
	return pop
}

// Validate performs structural sanity checks, returning an error describing
// the first violation found. It is used by tests and by builders of external
// namespaces.
func (t *Tree) Validate() error {
	n := t.Len()
	if n == 0 {
		return fmt.Errorf("namespace: empty tree")
	}
	if t.parent[0] != Invalid {
		return fmt.Errorf("namespace: root has parent %d", t.parent[0])
	}
	seen := 0
	for i := 0; i < n; i++ {
		for _, c := range t.Children(NodeID(i)) {
			if t.parent[c] != NodeID(i) {
				return fmt.Errorf("namespace: child %d of %d has parent %d", c, i, t.parent[c])
			}
			if t.depth[c] != t.depth[i]+1 {
				return fmt.Errorf("namespace: child %d depth %d, parent depth %d", c, t.depth[c], t.depth[i])
			}
			seen++
		}
	}
	if seen != n-1 {
		return fmt.Errorf("namespace: %d child links for %d nodes", seen, n)
	}
	// Sibling labels must be unique for Lookup to be well-defined.
	for i := 0; i < n; i++ {
		ch := t.Children(NodeID(i))
		if len(ch) < 2 {
			continue
		}
		labels := make([]string, len(ch))
		for j, c := range ch {
			labels[j] = t.label[c]
		}
		sort.Strings(labels)
		for j := 1; j < len(labels); j++ {
			if labels[j] == labels[j-1] {
				return fmt.Errorf("namespace: duplicate sibling label %q under node %d", labels[j], i)
			}
		}
	}
	return nil
}
