package namespace

import (
	"fmt"
	"strings"

	"terradir/internal/rng"
)

// NewBalanced constructs a perfectly balanced tree with the given arity and
// number of levels (levels >= 1; levels == 1 is just the root). With arity 2
// and levels 15 this is the paper's synthetic namespace Ns: 2^15-1 = 32,767
// nodes, root at level 0, leaves at level 14.
func NewBalanced(arity, levels int) *Tree {
	if arity < 1 || levels < 1 {
		panic("namespace: NewBalanced requires arity >= 1 and levels >= 1")
	}
	var b Builder
	b.AddRoot("")
	frontier := []NodeID{0}
	for lvl := 1; lvl < levels; lvl++ {
		next := make([]NodeID, 0, len(frontier)*arity)
		for _, p := range frontier {
			for c := 0; c < arity; c++ {
				next = append(next, b.AddChild(p, fmt.Sprintf("n%d", c)))
			}
		}
		frontier = next
	}
	return b.Build()
}

// ParseSpec builds the namespace a deployment names on its command line:
// "balanced:<arity>:<levels>" (NewBalanced) or "fs:<nodes>" (BuildFileSystem
// from seed, targeting nodes; 0 keeps the default 70,000). Every process of a
// deployment must parse the same spec and seed.
func ParseSpec(spec string, seed uint64) (*Tree, error) {
	switch {
	case strings.HasPrefix(spec, "balanced:"):
		var arity, levels int
		if _, err := fmt.Sscanf(spec, "balanced:%d:%d", &arity, &levels); err != nil {
			return nil, fmt.Errorf("bad namespace spec %q", spec)
		}
		return NewBalanced(arity, levels), nil
	case strings.HasPrefix(spec, "fs:"):
		var nodes int
		if _, err := fmt.Sscanf(spec, "fs:%d", &nodes); err != nil {
			return nil, fmt.Errorf("bad namespace spec %q", spec)
		}
		return NewFileSystem(seed, nodes), nil
	default:
		return nil, fmt.Errorf("unknown namespace spec %q", spec)
	}
}

// NewFileSystem builds the default file-system shape (BuildFileSystem) from
// seed, targeting targetNodes nodes (≤0 keeps the default 70,000).
func NewFileSystem(seed uint64, targetNodes int) *Tree {
	p := DefaultFileSystemParams()
	if targetNodes > 0 {
		p.TargetNodes = targetNodes
	}
	return BuildFileSystem(rng.New(seed), p)
}

// BalancedBinaryNodes returns the node count of a balanced binary tree with
// the given number of levels: 2^levels - 1.
func BalancedBinaryNodes(levels int) int { return (1 << uint(levels)) - 1 }

// FileSystemParams tunes the synthetic file-system namespace generator (the
// stand-in for the paper's Coda "barber" trace namespace Nc). The defaults
// (DefaultFileSystemParams) target ~70,000 nodes with a file-system-like
// shape: heavily skewed fan-out, most mass at moderate depth, a long deep
// tail.
type FileSystemParams struct {
	TargetNodes int     // approximate total node count
	MaxDepth    int     // hard depth cap
	DirFraction float64 // fraction of created nodes that are directories
	// MeanDirFanout is the mean number of children a directory receives when
	// it is expanded; actual fan-outs are geometric-ish and heavy-tailed.
	MeanDirFanout float64
}

// DefaultFileSystemParams approximates the Coda namespace scale reported in
// the paper (≈70k nodes: files accessed in one month plus their ancestors).
func DefaultFileSystemParams() FileSystemParams {
	return FileSystemParams{
		TargetNodes:   70000,
		MaxDepth:      12,
		DirFraction:   0.22,
		MeanDirFanout: 9,
	}
}

// BuildFileSystem generates a synthetic file-system-like namespace. Growth is
// preferential: an expandable directory is picked with probability
// proportional to (1 + children), which yields the skewed directory-size
// distribution observed in real file systems (few huge directories, many
// small ones) while keeping depth bounded.
func BuildFileSystem(src *rng.Source, p FileSystemParams) *Tree {
	if p.TargetNodes < 1 {
		panic("namespace: BuildFileSystem requires TargetNodes >= 1")
	}
	if p.MaxDepth < 1 {
		p.MaxDepth = 1
	}
	if p.DirFraction <= 0 || p.DirFraction > 1 {
		p.DirFraction = 0.22
	}
	if p.MeanDirFanout < 1 {
		p.MeanDirFanout = 9
	}
	var b Builder
	b.AddRoot("")
	type dir struct {
		id       NodeID
		depth    int
		children int
	}
	dirs := []dir{{id: 0}}
	// Weighted pick ∝ (1+children) via total-weight bookkeeping.
	totalW := 1
	fileN, dirN := 0, 0
	for b.Len() < p.TargetNodes && len(dirs) > 0 {
		// Pick a directory with probability ∝ 1+children.
		target := src.Intn(totalW)
		idx := 0
		acc := 0
		for i := range dirs {
			acc += 1 + dirs[i].children
			if target < acc {
				idx = i
				break
			}
		}
		d := &dirs[idx]
		isDir := src.Float64() < p.DirFraction && d.depth+1 < p.MaxDepth
		var label string
		if isDir {
			label = fmt.Sprintf("d%d", dirN)
			dirN++
		} else {
			label = fmt.Sprintf("f%d%s", fileN, fileExt(src))
			fileN++
		}
		id := b.AddChild(d.id, label)
		d.children++
		totalW++
		if isDir {
			dirs = append(dirs, dir{id: id, depth: d.depth + 1})
			totalW++
		}
	}
	return b.Build()
}

var exts = []string{".c", ".h", ".o", ".txt", ".tex", ".ps", ".dat", ""}

func fileExt(src *rng.Source) string {
	return exts[src.Intn(len(exts))]
}

// NewFromParents builds a tree from a parent array (parents[0] must be -1 and
// parents[i] < i for all i>0) and a label array. It is the low-level entry
// point for loading externally specified namespaces.
func NewFromParents(parents []int32, labels []string) (*Tree, error) {
	if len(parents) != len(labels) {
		return nil, fmt.Errorf("namespace: %d parents but %d labels", len(parents), len(labels))
	}
	if len(parents) == 0 {
		return nil, fmt.Errorf("namespace: empty parent array")
	}
	if parents[0] != -1 {
		return nil, fmt.Errorf("namespace: parents[0] = %d, want -1", parents[0])
	}
	var b Builder
	b.AddRoot(labels[0])
	for i := 1; i < len(parents); i++ {
		p := parents[i]
		if p < 0 || int(p) >= i {
			return nil, fmt.Errorf("namespace: parents[%d] = %d out of range", i, p)
		}
		b.AddChild(NodeID(p), labels[i])
	}
	t := b.Build()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
