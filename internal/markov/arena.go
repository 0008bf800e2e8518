// Arena: a frozen, pointer-free snapshot of a prediction tree.
//
// A trained Tree is one Go object per node — excellent for incremental
// training, terrible for a long-lived published model: the GC must
// trace millions of pointers on every cycle, and the node layout
// scatters a prediction walk across the heap. Freeze converts a tree
// into an Arena, a struct-of-slices image carved out of one contiguous
// buffer:
//
//	magic "pbppmAR2"            8 bytes
//	byte-order mark             uint64 (host-endian; see arenaBOM)
//	numNodes, numSyms,
//	symBytesLen                 3 × uint64 (host-endian)
//	counts   []int64            one per node, training mass
//	syms     []uint32           one per node, symbol id (0 = pseudo-root)
//	childOff []uint32           numNodes+1 prefix sums: the children of
//	                            node i are nodes [childOff[i], childOff[i+1])
//	symOff   []uint32           numSyms+1 prefix sums into symBytes
//	symBytes []byte             every URL's bytes, concatenated
//
// Nodes are laid out in BFS (level) order, so each node's children form
// one contiguous, symbol-sorted block and no per-node child count is
// stored — the childOff prefix-sum array is the entire structural
// encoding. Symbol ids are assigned in sorted-URL order (symbol
// ascending ⇔ URL ascending), which makes the layout canonical: any two
// trees with the same logical content freeze to byte-identical arenas
// regardless of interning or merge order, and a child block sorted by
// symbol is automatically sorted by URL for deterministic prediction
// order and binary-search lookup.
//
// The whole snapshot is a single relocatable []byte (Bytes), so the GC
// sees O(1) objects per model, a snapshot can be written to disk or a
// shared mapping verbatim, and ArenaFromBytes revives it after
// validating every index against the buffer bounds. Multi-byte fields
// are host-endian — the arena image is a same-architecture serving and
// sharing format. Because images now also travel between machines (the
// snapshot-distribution channel ships the arena verbatim), the header
// carries a byte-order mark: an image written on a machine with the
// opposite endianness is rejected by ArenaFromBytes with a clear error
// instead of being misread through byte-swapped offsets. Cross-endian
// interchange stays on wire format v2 (Encode/DecodeArena).
package markov

import (
	"bytes"
	"fmt"
	"sort"
	"unsafe"
)

// arenaMagic prefixes every arena image. AR2 added the byte-order mark
// to the header; AR1 images (which never left a process) are rejected
// as unknown magic.
const arenaMagic = "pbppmAR2"

// arenaBOM is the header's byte-order mark, written host-endian. A
// reader on a machine with the same endianness reads the constant back;
// on the opposite endianness it reads arenaBOMSwapped, which turns a
// silent offset-scrambling into a clear validation error.
const arenaBOM uint64 = 0x0102030405060708

// arenaBOMSwapped is arenaBOM as seen through byte-swapped eyes.
const arenaBOMSwapped uint64 = 0x0807060504030201

// arenaHeaderSize is the magic, the byte-order mark, and the three
// uint64 section lengths.
const arenaHeaderSize = len(arenaMagic) + 4*8

// arenaMaxDim bounds the node and symbol counts an image may declare,
// so a corrupt header cannot drive the loader into overflow or an
// absurd allocation before the size cross-check runs.
const arenaMaxDim = 1 << 31

// Arena is a frozen prediction tree serving predictions directly from
// the flat buffer described in the package comment above. It is
// immutable after construction and safe for unsynchronized concurrent
// use; its prediction methods perform no writes and no allocations
// (given a caller-supplied buffer).
type Arena struct {
	buf []byte // the full relocatable image, including header

	// Views into buf (unsafe.Slice casts; buf's base is 8-aligned).
	counts   []int64
	syms     []uint32
	childOff []uint32
	symOff   []uint32
	symBytes []byte

	// urls[s] is symbol s's URL as a zero-copy view into symBytes
	// (urls[0] is the pseudo-root's empty string); ids is the reverse
	// index, rebuilt at attach time.
	urls []string
	ids  map[string]uint32

	// depth[i] is node i's path length from the pseudo-root (0 for the
	// root itself), and link[i] its suffix link: the node for the
	// longest proper suffix of i's path that is itself a path from the
	// root (0 when only the empty suffix is). Both are derived at
	// attach time and drive Step; they are not part of the image.
	depth []uint32
	link  []uint32
}

// alignedBuf returns an 8-aligned byte slice of length n, so the int64
// section cast is always legal. Backing the slice with []int64 is the
// portable way to guarantee alignment.
func alignedBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	backing := make([]int64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), n)
}

// arenaLayout computes the section offsets for the given dimensions.
// counts starts 8-aligned (the header is 40 bytes); the uint32 sections
// stay 4-aligned because every preceding section is a multiple of 4.
func arenaLayout(numNodes, numSyms, symBytesLen uint64) (countsOff, symsOff, childOffOff, symOffOff, symBytesOff, total uint64) {
	countsOff = uint64(arenaHeaderSize)
	symsOff = countsOff + numNodes*8
	childOffOff = symsOff + numNodes*4
	symOffOff = childOffOff + (numNodes+1)*4
	symBytesOff = symOffOff + (numSyms+1)*4
	total = symBytesOff + symBytesLen
	return
}

// Freeze builds the arena image of the tree: reachable URLs are
// collected and sorted, nodes are laid out in BFS order with
// symbol-sorted child blocks, and the result is attached through the
// same validation path as ArenaFromBytes (a failure there is a builder
// bug and panics). The tree is read but not modified; usage marks are
// not carried over — a frozen model records no usage.
//
// Freeze collects only symbols reachable from the root: a tree sharing
// a larger symbol table (CopyIf) freezes to an arena holding just its
// own URLs.
func (t *Tree) Freeze() *Arena {
	// Pass 1: count nodes and mark reachable symbols.
	used := make([]bool, len(t.syms.urls))
	numNodes := 0
	var mark func(n *Node)
	mark = func(n *Node) {
		numNodes++
		used[n.sym] = true
		n.EachChild(func(c *Node) bool {
			mark(c)
			return true
		})
	}
	mark(t.Root)

	// Pass 2: canonical symbol order — URLs sorted ascending, ids 1..n.
	urls := make([]string, 0, len(t.syms.urls))
	for s, u := range used {
		if u && s != 0 {
			urls = append(urls, t.syms.urls[s])
		}
	}
	sort.Strings(urls)
	remap := make([]uint32, len(t.syms.urls))
	symBytesLen := 0
	for i, u := range urls {
		remap[t.syms.ids[u]] = uint32(i + 1)
		symBytesLen += len(u)
	}

	// Pass 3: BFS layout. Children are appended in remapped-symbol
	// order, so each block lands contiguous and sorted.
	order := make([]*Node, 1, numNodes)
	order[0] = t.Root
	childOff := make([]uint32, numNodes+1)
	scratch := make([]*Node, 0, 16)
	for i := 0; i < len(order); i++ {
		n := order[i]
		childOff[i] = uint32(len(order))
		scratch = scratch[:0]
		n.EachChild(func(c *Node) bool {
			scratch = append(scratch, c)
			return true
		})
		sort.Slice(scratch, func(a, b int) bool {
			return remap[scratch[a].sym] < remap[scratch[b].sym]
		})
		order = append(order, scratch...)
	}
	childOff[numNodes] = uint32(numNodes)

	// Pass 4: fill the image.
	countsOff, symsOff, childOffOff, symOffOff, symBytesOff, total :=
		arenaLayout(uint64(numNodes), uint64(len(urls)), uint64(symBytesLen))
	buf := alignedBuf(int(total))
	copy(buf, arenaMagic)
	hdr := unsafe.Slice((*uint64)(unsafe.Pointer(&buf[len(arenaMagic)])), 4)
	hdr[0], hdr[1], hdr[2], hdr[3] = arenaBOM, uint64(numNodes), uint64(len(urls)), uint64(symBytesLen)

	counts := unsafe.Slice((*int64)(unsafe.Pointer(&buf[countsOff])), numNodes)
	syms := unsafe.Slice((*uint32)(unsafe.Pointer(&buf[symsOff])), numNodes)
	for i, n := range order {
		counts[i] = n.Count
		syms[i] = remap[n.sym]
	}
	copy(unsafe.Slice((*uint32)(unsafe.Pointer(&buf[childOffOff])), numNodes+1), childOff)
	symOff := unsafe.Slice((*uint32)(unsafe.Pointer(&buf[symOffOff])), len(urls)+1)
	at := uint32(0)
	for i, u := range urls {
		symOff[i] = at
		copy(buf[symBytesOff+uint64(at):], u)
		at += uint32(len(u))
	}
	symOff[len(urls)] = at

	a, err := ArenaFromBytes(buf)
	if err != nil {
		panic("markov: Freeze built an invalid arena: " + err.Error())
	}
	return a
}

// ArenaFromBytes attaches to an arena image previously obtained from
// Arena.Bytes (same machine: the image is host-endian). Every length,
// offset, and symbol id is validated against the buffer bounds before
// any section is trusted, so a truncated or corrupt image returns an
// error instead of panicking or over-allocating. On success the arena
// reads from buf for its whole lifetime (or from an aligned private
// copy when buf is not 8-aligned); the caller must not modify it.
func ArenaFromBytes(buf []byte) (*Arena, error) {
	if len(buf) < arenaHeaderSize {
		return nil, fmt.Errorf("markov: arena: image truncated at %d bytes", len(buf))
	}
	if !bytes.Equal(buf[:len(arenaMagic)], []byte(arenaMagic)) {
		return nil, fmt.Errorf("markov: arena: bad magic %q", buf[:len(arenaMagic)])
	}
	if uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
		aligned := alignedBuf(len(buf))
		copy(aligned, buf)
		buf = aligned
	}
	hdr := unsafe.Slice((*uint64)(unsafe.Pointer(&buf[len(arenaMagic)])), 4)
	switch hdr[0] {
	case arenaBOM:
		// Image and host agree on byte order.
	case arenaBOMSwapped:
		return nil, fmt.Errorf("markov: arena: image was written on a machine with the opposite byte order; re-freeze on this architecture or ship the model over wire format v2")
	default:
		return nil, fmt.Errorf("markov: arena: bad byte-order mark %#x", hdr[0])
	}
	numNodes, numSyms, symBytesLen := hdr[1], hdr[2], hdr[3]
	if numNodes < 1 || numNodes > arenaMaxDim || numSyms > arenaMaxDim || symBytesLen > arenaMaxDim {
		return nil, fmt.Errorf("markov: arena: implausible dimensions nodes=%d syms=%d urlbytes=%d",
			numNodes, numSyms, symBytesLen)
	}
	countsOff, symsOff, childOffOff, symOffOff, symBytesOff, total :=
		arenaLayout(numNodes, numSyms, symBytesLen)
	if total != uint64(len(buf)) {
		return nil, fmt.Errorf("markov: arena: image is %d bytes, header describes %d", len(buf), total)
	}

	a := &Arena{
		buf:      buf,
		counts:   unsafe.Slice((*int64)(unsafe.Pointer(&buf[countsOff])), numNodes),
		syms:     unsafe.Slice((*uint32)(unsafe.Pointer(&buf[symsOff])), numNodes),
		childOff: unsafe.Slice((*uint32)(unsafe.Pointer(&buf[childOffOff])), numNodes+1),
		symOff:   unsafe.Slice((*uint32)(unsafe.Pointer(&buf[symOffOff])), numSyms+1),
	}
	if symBytesLen > 0 {
		a.symBytes = buf[symBytesOff:total]
	}

	// Structure: BFS child blocks are nondecreasing prefix sums, each
	// node's block starts strictly after the node itself (no cycles),
	// and the blocks tile [1, numNodes) exactly.
	if a.childOff[0] != 1 {
		return nil, fmt.Errorf("markov: arena: root child block starts at %d, want 1", a.childOff[0])
	}
	if a.childOff[numNodes] != uint32(numNodes) {
		return nil, fmt.Errorf("markov: arena: child blocks end at %d, want %d", a.childOff[numNodes], numNodes)
	}
	for i := uint64(0); i < numNodes; i++ {
		lo, hi := a.childOff[i], a.childOff[i+1]
		if lo > hi || uint64(lo) < i+1 {
			return nil, fmt.Errorf("markov: arena: node %d child block [%d,%d) out of order", i, lo, hi)
		}
	}
	// Symbols: the pseudo-root is 0, every other node references a real
	// symbol, and sibling blocks are strictly symbol-sorted (the binary
	// search and deterministic-order invariant).
	if a.syms[0] != 0 {
		return nil, fmt.Errorf("markov: arena: root symbol %d, want 0", a.syms[0])
	}
	for i := uint64(1); i < numNodes; i++ {
		if s := a.syms[i]; s == 0 || uint64(s) > numSyms {
			return nil, fmt.Errorf("markov: arena: node %d symbol %d out of range [1,%d]", i, s, numSyms)
		}
	}
	for i := uint64(0); i < numNodes; i++ {
		for ci := a.childOff[i] + 1; ci < a.childOff[i+1]; ci++ {
			if a.syms[ci-1] >= a.syms[ci] {
				return nil, fmt.Errorf("markov: arena: node %d sibling symbols not strictly ascending", i)
			}
		}
	}
	for i, c := range a.counts {
		if c < 0 {
			return nil, fmt.Errorf("markov: arena: node %d negative count %d", i, c)
		}
	}
	// Symbol table: prefix sums within symBytes, URLs strictly
	// ascending (unique and canonical — symbol order ⇔ URL order).
	if a.symOff[0] != 0 || uint64(a.symOff[numSyms]) != symBytesLen {
		return nil, fmt.Errorf("markov: arena: symbol offsets span [%d,%d], want [0,%d]",
			a.symOff[0], a.symOff[numSyms], symBytesLen)
	}
	for s := uint64(1); s <= numSyms; s++ {
		if a.symOff[s-1] > a.symOff[s] {
			return nil, fmt.Errorf("markov: arena: symbol %d offsets decrease", s)
		}
	}
	a.urls = make([]string, numSyms+1)
	a.ids = make(map[string]uint32, numSyms)
	for s := uint64(1); s <= numSyms; s++ {
		start, end := a.symOff[s-1], a.symOff[s]
		var u string
		if end > start {
			u = unsafe.String(&a.symBytes[start], int(end-start))
		}
		if s > 1 && a.urls[s-1] >= u {
			return nil, fmt.Errorf("markov: arena: URLs not strictly ascending at symbol %d", s)
		}
		a.urls[s] = u
		a.ids[u] = uint32(s)
	}
	// Depths and suffix links, the Aho–Corasick failure function over
	// the tree's paths. The layout is BFS, so a node's parent and every
	// node on its parent's link chain precede it: one forward pass finds
	// each link it follows already set.
	a.depth = make([]uint32, numNodes)
	a.link = make([]uint32, numNodes)
	for i := uint32(0); i < uint32(numNodes); i++ {
		for c := a.childOff[i]; c < a.childOff[i+1]; c++ {
			a.depth[c] = a.depth[i] + 1
			if i != 0 {
				a.link[c] = a.advance(a.link[i], a.syms[c])
			}
		}
	}
	return a, nil
}

// Bytes returns the arena's relocatable image. It aliases the arena's
// live storage: treat it as read-only, and copy before modifying.
func (a *Arena) Bytes() []byte { return a.buf }

// SizeBytes reports the image size — the frozen model's entire
// node-and-URL storage footprint.
func (a *Arena) SizeBytes() int { return len(a.buf) }

// NodeCount reports the number of URL nodes (the paper's space
// metric), excluding the pseudo-root.
func (a *Arena) NodeCount() int { return len(a.counts) - 1 }

// SymbolCount reports the number of distinct URLs.
func (a *Arena) SymbolCount() int { return len(a.urls) - 1 }

// URLOf resolves a symbol id (0 is the pseudo-root's empty string).
// The returned string is a zero-copy view into the arena image.
func (a *Arena) URLOf(sym uint32) string { return a.urls[sym] }

// child binary-searches node's sorted child block for sym.
func (a *Arena) child(node, sym uint32) (uint32, bool) {
	lo, hi := a.childOff[node], a.childOff[node+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if a.syms[mid] < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < a.childOff[node+1] && a.syms[lo] == sym {
		return lo, true
	}
	return 0, false
}

// advance is the uncapped streaming transition: the deepest node whose
// path is a suffix of node's path extended by sym, or 0 when none is.
// Each suffix link followed is strictly shallower, so the search ends.
func (a *Arena) advance(node, sym uint32) uint32 {
	for {
		if c, found := a.child(node, sym); found {
			return c
		}
		if node == 0 {
			return 0
		}
		node = a.link[node]
	}
}

// Step advances a streaming match by one URL. node is the match state
// of a context: the deepest node whose path is a suffix of the context,
// 0 when there is none (as for the empty context). Step returns the
// state of the context extended by url, matched over its trailing
// maxOrder URLs only. Stepping a context URL by URL from 0 therefore
// reaches the node LongestMatch finds for its last maxOrder URLs, for
// one symbol lookup and an amortized constant number of child searches
// per step; an unseen URL resets the state to 0.
func (a *Arena) Step(node uint32, url string, maxOrder int) uint32 {
	sym, known := a.ids[url]
	if !known {
		return 0
	}
	return a.Clamp(a.advance(node, sym), maxOrder)
}

// Clamp returns the deepest node on node's suffix-link chain (node
// itself included) whose depth is at most maxOrder, or 0: the match
// state of the same context considered over its last maxOrder URLs.
func (a *Arena) Clamp(node uint32, maxOrder int) uint32 {
	for node != 0 && int(a.depth[node]) > maxOrder {
		node = a.link[node]
	}
	return node
}

// Depth reports a node's path length from the pseudo-root: the matched
// order of a match state.
func (a *Arena) Depth(node uint32) int { return int(a.depth[node]) }

// LongestMatch finds the deepest node matching the longest suffix of
// ctx, returning the node with the matched order (suffix length). ok is
// false when no suffix of ctx is in the arena. It streams ctx through
// Step, so it visits each URL once whatever the context length.
func (a *Arena) LongestMatch(ctx []string) (node uint32, order int, ok bool) {
	for _, u := range ctx {
		node = a.Step(node, u, len(ctx))
	}
	return node, a.Depth(node), node != 0
}

// Match walks the exact path seq from the pseudo-root, mirroring
// Tree.Match. ok is false when the path is absent (or seq is empty).
func (a *Arena) Match(seq []string) (node uint32, ok bool) {
	if len(seq) == 0 {
		return 0, false
	}
	n := uint32(0)
	for _, u := range seq {
		sym, known := a.ids[u]
		if !known {
			return 0, false
		}
		c, found := a.child(n, sym)
		if !found {
			return 0, false
		}
		n = c
	}
	return n, true
}

// Count reports a node's training count.
func (a *Arena) Count(node uint32) int64 { return a.counts[node] }

// EachChild visits node's children in symbol (= URL) order until fn
// returns false.
func (a *Arena) EachChild(node uint32, fn func(child uint32, url string) bool) {
	for ci := a.childOff[node]; ci < a.childOff[node+1]; ci++ {
		if !fn(ci, a.urls[a.syms[ci]]) {
			return
		}
	}
}

// AppendPredictions appends node's children with conditional
// probability at least threshold to buf and sorts the appended tail
// into the pinned prediction order (probability descending, then URL
// ascending) — exactly the candidate set and order Tree.PredictFrom
// produces, without usage marking (a frozen model records no usage) and
// without allocating beyond buf's capacity.
func (a *Arena) AppendPredictions(buf []Prediction, node uint32, threshold float64, order int) []Prediction {
	total := a.counts[node]
	if total == 0 {
		return buf
	}
	base := len(buf)
	for ci := a.childOff[node]; ci < a.childOff[node+1]; ci++ {
		p := float64(a.counts[ci]) / float64(total)
		if p >= threshold {
			buf = append(buf, Prediction{URL: a.urls[a.syms[ci]], Probability: p, Order: order})
		}
	}
	SortPredictions(buf[base:])
	return buf
}

// PredictInto is the arena's longest-match prediction path: the
// candidates of the deepest node matching the longest context suffix,
// written into buf per the PredictInto buffer-ownership contract
// (buf's previous contents are discarded; the result reuses its
// backing storage when capacity allows).
func (a *Arena) PredictInto(ctx []string, threshold float64, buf []Prediction) []Prediction {
	buf = buf[:0]
	node, order, ok := a.LongestMatch(ctx)
	if !ok {
		return buf
	}
	return a.AppendPredictions(buf, node, threshold, order)
}

// Stats computes TreeStats with the exact semantics of Tree.Stats: the
// pseudo-root is excluded from node, depth, and branching figures;
// Roots is its fan-out; Bytes is the image size plus the derived
// lookup structures rebuilt at attach time.
func (a *Arena) Stats() TreeStats {
	numNodes := len(a.counts)
	st := TreeStats{Symbols: a.SymbolCount()}
	if numNodes > 1 {
		st.Roots = int(a.childOff[1]) - 1
	}
	internal, childSum := 0, 0
	for i := 0; i < numNodes; i++ {
		fanout := int(a.childOff[i+1] - a.childOff[i])
		if i == 0 {
			continue
		}
		st.Nodes++
		st.TotalCount += a.counts[i]
		// Depth 0 is the root's children, matching the pointer walk.
		d := a.Depth(uint32(i)) - 1
		for len(st.DepthHistogram) <= d {
			st.DepthHistogram = append(st.DepthHistogram, 0)
		}
		st.DepthHistogram[d]++
		if d+1 > st.MaxDepth {
			st.MaxDepth = d + 1
		}
		if fanout == 0 {
			st.Leaves++
		} else {
			internal++
			childSum += fanout
		}
	}
	if internal > 0 {
		st.MeanBranching = float64(childSum) / float64(internal)
	}
	st.Bytes = int64(len(a.buf))
	// Derived attach-time structures: the urls slice, the reverse map,
	// and the depth and suffix-link arrays.
	st.Bytes += int64(cap(a.urls)) * int64(unsafe.Sizeof(""))
	st.Bytes += 48 + int64(len(a.ids))*(int64(unsafe.Sizeof(""))+int64(unsafe.Sizeof(uint32(0)))+mapEntryOverhead)
	st.Bytes += int64(cap(a.depth)+cap(a.link)) * int64(unsafe.Sizeof(uint32(0)))
	return st
}

// FrozenTree is the generic frozen predictor for models whose Predict
// is a longest-suffix match over a single tree (standard PPM, LRS):
// the training-time tree is replaced by its arena, and prediction runs
// allocation-free through PredictInto. A frozen model is immutable —
// TrainSequence panics, and there is no usage recording to detach.
type FrozenTree struct {
	arena *Arena
	name  string
	// threshold is the minimum conditional probability, resolved at
	// freeze time (the config sentinel dance is a training-time affair).
	threshold float64
	// clampHeight > 0 trims contexts to the trailing clampHeight-1 URLs
	// before matching, mirroring the height-capped models; the streaming
	// methods apply it as an order cap.
	clampHeight int
}

var (
	_ Predictor         = (*FrozenTree)(nil)
	_ BufferedPredictor = (*FrozenTree)(nil)
	_ ArenaHolder       = (*FrozenTree)(nil)
)

// NewFrozenTree wraps an arena as a predictor. name is reported
// verbatim; clampHeight mirrors the source model's height cap (0 for
// unbounded).
func NewFrozenTree(a *Arena, name string, threshold float64, clampHeight int) *FrozenTree {
	return &FrozenTree{arena: a, name: name, threshold: threshold, clampHeight: clampHeight}
}

// Name identifies the model; frozen models keep their source's name so
// reports and logs stay comparable across a freeze.
func (f *FrozenTree) Name() string { return f.name }

// TrainSequence panics: a frozen model is a published immutable
// snapshot. Train the live model and freeze again.
func (f *FrozenTree) TrainSequence([]string) {
	panic("markov: TrainSequence on a frozen model; train the live model and re-freeze")
}

// Predict returns the longest-match candidates, allocating a fresh
// slice (it never aliases arena storage beyond the immutable URL
// strings). Serving paths use PredictInto with a reused buffer.
func (f *FrozenTree) Predict(context []string) []Prediction {
	return f.PredictInto(context, nil)
}

// PredictInto implements BufferedPredictor: buf's previous contents are
// discarded and the result reuses its backing storage when capacity
// allows. With a warm buffer the call performs zero allocations.
func (f *FrozenTree) PredictInto(context []string, buf []Prediction) []Prediction {
	ctx := context
	if f.clampHeight > 0 && len(ctx) >= f.clampHeight {
		ctx = ctx[len(ctx)-(f.clampHeight-1):]
	}
	return f.arena.PredictInto(ctx, f.threshold, buf)
}

// maxOrder lowers an order cap to the clamp height's.
func (f *FrozenTree) maxOrder(n int) int {
	if f.clampHeight > 0 && f.clampHeight-1 < n {
		return f.clampHeight - 1
	}
	return n
}

// Step advances a session's match state by one URL (see Arena.Step),
// matching at most maxOrder trailing URLs and never more than the clamp
// height allows.
func (f *FrozenTree) Step(node uint32, url string, maxOrder int) uint32 {
	return f.arena.Step(node, url, f.maxOrder(maxOrder))
}

// PredictFrom is PredictInto for the context whose match state is node,
// considered over its last maxOrder URLs: after stepping a context URL
// by URL, it equals PredictInto on the context's last maxOrder URLs.
// The last URL is unused; it keeps the signature of models whose extra
// candidates are keyed by the current click.
func (f *FrozenTree) PredictFrom(node uint32, _ string, maxOrder int, buf []Prediction) []Prediction {
	buf = buf[:0]
	if node = f.arena.Clamp(node, f.maxOrder(maxOrder)); node == 0 {
		return buf
	}
	return f.arena.AppendPredictions(buf, node, f.threshold, f.arena.Depth(node))
}

// NodeCount reports the storage requirement in URL nodes.
func (f *FrozenTree) NodeCount() int { return f.arena.NodeCount() }

// Arena exposes the underlying arena (see ArenaHolder).
func (f *FrozenTree) Arena() *Arena { return f.arena }
