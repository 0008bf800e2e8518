package markov

import (
	"fmt"
	"strings"
	"unsafe"
)

// Per-entry bookkeeping estimate for Go maps: bucket slot shares for
// key and value plus header/overflow amortization. Maps cannot be
// measured exactly without runtime internals, so this is the one
// approximate term in BytesEstimate; everything else is unsafe.Sizeof
// of the real layout.
const mapEntryOverhead = 16

// TreeStats summarizes the shape of a prediction tree — the numbers
// behind the paper's space discussion and useful for capacity planning
// a deployment.
type TreeStats struct {
	// Nodes is the URL node count (the paper's space metric).
	Nodes int
	// Leaves is the number of root-to-leaf paths.
	Leaves int
	// Roots is the number of branch heads.
	Roots int
	// MaxDepth is the longest branch, in nodes.
	MaxDepth int
	// DepthHistogram counts nodes per depth (index 0 = roots).
	DepthHistogram []int
	// MeanBranching is the average child count over internal nodes.
	MeanBranching float64
	// TotalCount is the sum of node counts (training mass).
	TotalCount int64
	// Bytes is the measured in-memory size of the tree (see
	// Tree.BytesEstimate), or of an arena: its image plus what attach
	// derives from it (Arena.Stats). The pbppm_model_bytes gauge reads
	// it for a published model.
	Bytes int64
	// Symbols is the number of distinct URLs interned by the tree.
	Symbols int
}

// BytesEstimate measures the tree's in-memory size: the node chunks and
// the child runs at their capacities, and the symbol table (each
// distinct URL stored once, plus intern-map bookkeeping). Struct and
// slice terms use the real compiled sizes via unsafe.Sizeof; map terms
// use a documented per-entry estimate. It reads no node.
func (t *Tree) BytesEstimate() int64 {
	bytes := int64(cap(t.chunks)) * int64(unsafe.Sizeof([]node(nil)))
	for _, c := range t.chunks {
		bytes += int64(cap(c)) * int64(unsafe.Sizeof(node{}))
	}
	bytes += int64(cap(t.kids)) * int64(unsafe.Sizeof(kid{}))

	// Symbol table: the urls slice backing array (string headers plus
	// each URL's bytes, stored once) and the intern map.
	bytes += int64(cap(t.syms.urls)) * int64(unsafe.Sizeof(""))
	for _, u := range t.syms.urls {
		bytes += int64(len(u))
	}
	bytes += 48 + int64(len(t.syms.ids))*(int64(unsafe.Sizeof(""))+int64(unsafe.Sizeof(uint32(0)))+mapEntryOverhead)
	return bytes
}

// Stats computes TreeStats in one walk.
func (t *Tree) Stats() TreeStats {
	var st TreeStats
	st.Roots = t.Fanout(Root)
	st.Symbols = t.SymbolCount()
	st.Bytes = t.BytesEstimate()
	internal := 0
	childSum := 0
	var walk func(n uint32, depth int)
	walk = func(n uint32, depth int) {
		st.Nodes++
		st.TotalCount += t.Count(n)
		for len(st.DepthHistogram) <= depth {
			st.DepthHistogram = append(st.DepthHistogram, 0)
		}
		st.DepthHistogram[depth]++
		if depth+1 > st.MaxDepth {
			st.MaxDepth = depth + 1
		}
		if t.IsLeaf(n) {
			st.Leaves++
			return
		}
		internal++
		childSum += t.Fanout(n)
		for _, k := range t.run(n) {
			walk(k.node, depth+1)
		}
	}
	for _, k := range t.run(Root) {
		walk(k.node, 0)
	}
	if internal > 0 {
		st.MeanBranching = float64(childSum) / float64(internal)
	}
	return st
}

// String renders the stats as a small report.
func (st TreeStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes %d (roots %d, leaves %d), max depth %d\n",
		st.Nodes, st.Roots, st.Leaves, st.MaxDepth)
	fmt.Fprintf(&sb, "mean branching %.2f, training mass %d, %d interned URLs, ~%d KiB\n",
		st.MeanBranching, st.TotalCount, st.Symbols, st.Bytes/1024)
	sb.WriteString("depth histogram:")
	for d, n := range st.DepthHistogram {
		fmt.Fprintf(&sb, " %d:%d", d+1, n)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// TreeHolder is implemented by models backed by a single prediction
// tree (PB-PPM, PPM, LRS expose theirs); the observability layer uses
// it to publish model-health gauges without knowing the model type.
type TreeHolder interface {
	Tree() *Tree
}

// ArenaHolder is implemented by frozen models backed by a prediction
// arena; the observability layer uses it the same way as TreeHolder.
type ArenaHolder interface {
	Arena() *Arena
}

// StatsOf returns tree statistics for any predictor backed by a
// prediction tree or a frozen arena; ok is false for models without
// either (e.g. Top-N), whose only universal health signal is
// Predictor.NodeCount.
func StatsOf(p Predictor) (st TreeStats, ok bool) {
	if th, ok := p.(TreeHolder); ok && th.Tree() != nil {
		return th.Tree().Stats(), true
	}
	if ah, ok := p.(ArenaHolder); ok && ah.Arena() != nil {
		return ah.Arena().Stats(), true
	}
	return TreeStats{}, false
}
