// Package markov provides the Markov prediction-tree substrate shared by
// the three PPM prefetching models in the paper (standard PPM, LRS-PPM,
// and popularity-based PPM): counted trie nodes, longest-suffix context
// matching, threshold-based prediction, pruning, usage marking for the
// path-utilization metric, and the Predictor interface the simulator
// drives.
//
// Storage layout. URLs are interned into a per-tree symbol table, so a
// node stores a 4-byte symbol instead of a string and each distinct URL
// is kept once per tree. Children use a hybrid representation: a slice
// of (symbol, pointer) pairs sorted by symbol while fan-out is small,
// promoted to a map above promoteFanout. Together these replace the old
// unconditional map[string]*Node per node, cutting real memory well
// below what the paper's node-count space metric suggests.
package markov

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// promoteFanout is the child count above which a node's sorted child
// slice is promoted to a map. Web prediction trees are heavy-tailed:
// almost all nodes stay below this and pay 16 bytes per child; the few
// hub nodes (site front pages, the pseudo-root) get O(1) lookup.
const promoteFanout = 16

// symtab interns URLs to dense uint32 symbols. Symbol 0 is reserved for
// the pseudo-root and never assigned to a URL.
type symtab struct {
	ids  map[string]uint32
	urls []string
}

func newSymtab() *symtab {
	return &symtab{ids: make(map[string]uint32), urls: []string{""}}
}

// intern returns the symbol for url, assigning the next free one on
// first sight.
func (s *symtab) intern(url string) uint32 {
	if id, ok := s.ids[url]; ok {
		return id
	}
	id := uint32(len(s.urls))
	s.urls = append(s.urls, url)
	s.ids[url] = id
	return id
}

// lookup returns the symbol for url without interning.
func (s *symtab) lookup(url string) (uint32, bool) {
	id, ok := s.ids[url]
	return id, ok
}

// clone returns an independent copy of the symbol table. The strings
// themselves are shared (immutable in Go); only the slice and map
// containers are fresh, so interning into the clone never mutates the
// original.
func (s *symtab) clone() *symtab {
	ids := make(map[string]uint32, len(s.ids))
	for url, id := range s.ids {
		ids[url] = id
	}
	urls := make([]string, len(s.urls))
	copy(urls, s.urls)
	return &symtab{ids: ids, urls: urls}
}

// childRef is one entry of the small (slice) child representation.
type childRef struct {
	sym  uint32
	node *Node
}

// Node is one URL occurrence context in a prediction tree. Count is the
// number of training accesses that reached this node along its path.
// The node does not store its URL; the owning Tree's symbol table
// resolves it (see Tree.URLOf).
type Node struct {
	Count int64

	// small holds up to promoteFanout children sorted by symbol; big
	// replaces it once fan-out exceeds that. At most one is non-nil.
	small []childRef
	big   map[uint32]*Node

	sym uint32

	// used records that a prediction-phase lookup reached this node or
	// predicted it; the path-utilization metric (Figure 2, right) counts
	// leaves with used set. It is atomic so concurrent Predict calls on
	// a shared tree never race on the mark.
	used atomic.Bool
}

// childBySym returns the child with the given symbol, or nil.
func (n *Node) childBySym(sym uint32) *Node {
	if n.big != nil {
		return n.big[sym]
	}
	s := n.small
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].sym < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo].sym == sym {
		return s[lo].node
	}
	return nil
}

// ensureChildSym returns the child with the given symbol, creating it
// with zero count if absent and promoting the representation when the
// slice outgrows promoteFanout.
func (n *Node) ensureChildSym(sym uint32) *Node {
	if n.big != nil {
		if c := n.big[sym]; c != nil {
			return c
		}
		c := &Node{sym: sym}
		n.big[sym] = c
		return c
	}
	s := n.small
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].sym < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo].sym == sym {
		return s[lo].node
	}
	c := &Node{sym: sym}
	if len(s) >= promoteFanout {
		n.big = make(map[uint32]*Node, len(s)+1)
		for _, cr := range s {
			n.big[cr.sym] = cr.node
		}
		n.big[sym] = c
		n.small = nil
		return c
	}
	n.small = append(n.small, childRef{})
	copy(n.small[lo+1:], n.small[lo:])
	n.small[lo] = childRef{sym: sym, node: c}
	return c
}

// removeChildSym detaches the child with the given symbol, if present.
func (n *Node) removeChildSym(sym uint32) {
	if n.big != nil {
		delete(n.big, sym)
		return
	}
	for i, cr := range n.small {
		if cr.sym == sym {
			n.small = append(n.small[:i], n.small[i+1:]...)
			return
		}
	}
}

// EachChild visits the node's children until fn returns false. The
// visiting order is unspecified; callers that need determinism sort by
// URL, as Walk does.
func (n *Node) EachChild(fn func(c *Node) bool) {
	if n.big != nil {
		for _, c := range n.big {
			if !fn(c) {
				return
			}
		}
		return
	}
	for _, cr := range n.small {
		if !fn(cr.node) {
			return
		}
	}
}

// Fanout reports the number of children.
func (n *Node) Fanout() int {
	if n.big != nil {
		return len(n.big)
	}
	return len(n.small)
}

// MarkUsed flags the node as touched by a prediction. It is safe to
// call from concurrent predictions.
func (n *Node) MarkUsed() { n.used.Store(true) }

// Used reports whether the node has been touched by a prediction.
func (n *Node) Used() bool { return n.used.Load() }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Fanout() == 0 }

// Prediction is one prefetch candidate.
type Prediction struct {
	// URL is the predicted next document.
	URL string
	// Probability is the model's estimate that URL is accessed next,
	// conditioned on the matched context.
	Probability float64
	// Order is the length of the context that produced the prediction
	// (1 = only the current URL matched).
	Order int
}

// BufferedPredictor is implemented by predictors that can write their
// candidates into a caller-supplied scratch buffer — the explicit
// buffer-ownership contract of the serving path:
//
//   - buf's previous contents are discarded (the model writes from
//     buf[:0]); the returned slice reuses buf's backing storage when
//     capacity allows and is freshly grown otherwise.
//   - The returned slice never aliases model-internal storage, so the
//     caller may mutate or reuse it freely; only the URL strings are
//     (immutable) views shared with the model.
//   - The model does not retain the buffer: ownership stays with the
//     caller across the call.
//
// All four models implement it; the frozen snapshot they all freeze to
// (FrozenTree), blended PPM's included, additionally guarantees zero
// allocations per call once the buffer is warm. Callers holding only a
// Predictor use the PredictInto helper.
type BufferedPredictor interface {
	Predictor
	// PredictInto is Predict writing into buf per the contract above.
	PredictInto(context []string, buf []Prediction) []Prediction
}

// Freezer is implemented by models that can freeze their trained state
// into an immutable, GC-free serving snapshot (see Arena). The frozen
// predictor yields bit-identical predictions to the live model, cannot
// be trained, and is safe for unsynchronized concurrent use.
type Freezer interface {
	Freeze() Predictor
}

// Freeze returns the snapshot a trained model is published as: p's
// frozen form when p is a Freezer, and p itself otherwise (frozen
// models, Top-N, wrappers). Every install path — the server, the
// cluster, the maintainer — publishes through it, so a live tree is
// never shared with serving goroutines. A caller that keeps training
// the live model publishes again.
func Freeze(p Predictor) Predictor {
	if fz, ok := p.(Freezer); ok {
		return fz.Freeze()
	}
	return p
}

// PredictInto routes a prediction through p's buffered path when it has
// one, and falls back to copying Predict's result into buf otherwise —
// so callers get the buffer-ownership contract from any Predictor.
func PredictInto(p Predictor, context []string, buf []Prediction) []Prediction {
	if bp, ok := p.(BufferedPredictor); ok {
		return bp.PredictInto(context, buf)
	}
	return append(buf[:0], p.Predict(context)...)
}

// Predictor is the interface the trace-driven simulator drives. All
// three models implement it.
type Predictor interface {
	// Name identifies the model in reports ("PPM", "LRS-PPM", "PB-PPM").
	Name() string
	// TrainSequence folds one session's URL sequence into the model.
	// Training mutates the model and must not run concurrently with
	// other methods.
	TrainSequence(seq []string)
	// Predict returns prefetch candidates given the session context so
	// far (oldest first; the last element is the current click). Once
	// training has ceased, Predict is safe for concurrent use: a live
	// model writes only atomic usage marks, and a frozen snapshot (see
	// Freeze) performs no writes at all.
	Predict(context []string) []Prediction
	// NodeCount reports the model's storage requirement in URL nodes,
	// the paper's space metric.
	NodeCount() int
}

// UtilizationReporter is implemented by models that can report the
// fraction of stored root-to-leaf paths actually used by predictions.
type UtilizationReporter interface {
	Utilization() float64
	ResetUsage()
}

// Tree is a counted prediction trie under a pseudo-root. The pseudo-root
// itself carries the number of branch insertions and is excluded from
// node counts. A live tree always records prediction-time usage marks
// (the path-utilization metric); serving paths publish its frozen Arena
// instead, which records nothing.
type Tree struct {
	Root *Node

	syms *symtab
}

// NewTree returns an empty tree.
func NewTree() *Tree {
	return &Tree{Root: &Node{}, syms: newSymtab()}
}

// URLOf resolves a node's URL through the tree's symbol table. The
// pseudo-root resolves to the empty string.
func (t *Tree) URLOf(n *Node) string { return t.syms.urls[n.sym] }

// SymbolCount reports the number of distinct URLs interned by the tree.
func (t *Tree) SymbolCount() int { return len(t.syms.urls) - 1 }

// Child returns n's child for url, or nil. URLs never seen by the tree
// resolve to nil without mutating the symbol table.
func (t *Tree) Child(n *Node, url string) *Node {
	sym, ok := t.syms.lookup(url)
	if !ok {
		return nil
	}
	return n.childBySym(sym)
}

// EnsureChild returns n's child for url, creating it with zero count if
// absent. n must belong to t: the child is keyed by t's symbol for url.
func (t *Tree) EnsureChild(n *Node, url string) *Node {
	return n.ensureChildSym(t.syms.intern(url))
}

// EachChild visits n's children with their URLs until fn returns false.
// Visiting order is unspecified.
func (t *Tree) EachChild(n *Node, fn func(url string, c *Node) bool) {
	n.EachChild(func(c *Node) bool { return fn(t.syms.urls[c.sym], c) })
}

// Insert adds seq as a branch from the pseudo-root, incrementing counts
// by weight along the path. maxDepth > 0 truncates the branch to that
// many nodes; maxDepth <= 0 means unbounded. weight must be positive.
func (t *Tree) Insert(seq []string, maxDepth int, weight int64) {
	if weight <= 0 {
		panic(fmt.Sprintf("markov: non-positive insert weight %d", weight))
	}
	if len(seq) == 0 {
		return
	}
	t.Root.Count += weight
	n := t.Root
	for i, u := range seq {
		if maxDepth > 0 && i >= maxDepth {
			break
		}
		n = n.ensureChildSym(t.syms.intern(u))
		n.Count += weight
	}
}

// Match walks the exact path seq from the pseudo-root and returns the
// final node, or nil if the path is absent.
func (t *Tree) Match(seq []string) *Node {
	n := t.Root
	for _, u := range seq {
		sym, ok := t.syms.lookup(u)
		if !ok {
			return nil
		}
		n = n.childBySym(sym)
		if n == nil {
			return nil
		}
	}
	if n == t.Root {
		return nil
	}
	return n
}

// liveMatch is one still-surviving suffix match during LongestMatch:
// the context position it started at and the node it has reached.
type liveMatch struct {
	start int
	n     *Node
}

// LongestMatch finds the deepest node matching the longest suffix of
// ctx and returns it with the matched order (suffix length). It returns
// (nil, 0) when no suffix of ctx, not even the final URL alone, is in
// the tree.
//
// The implementation advances every candidate suffix in a single pass
// over ctx instead of re-walking from the root per suffix (which costs
// O(len(ctx)²) node hops): at each position all live matches step to
// the child for the current symbol or die, and a new match rooted at
// this position joins. The earliest surviving start is the longest
// suffix.
func (t *Tree) LongestMatch(ctx []string) (*Node, int) {
	if len(ctx) == 0 {
		return nil, 0
	}
	var live []liveMatch
	for i, u := range ctx {
		sym, known := t.syms.lookup(u)
		if !known {
			// An unseen URL kills every match running through it.
			live = live[:0]
			continue
		}
		k := 0
		for _, lv := range live {
			if c := lv.n.childBySym(sym); c != nil {
				live[k] = liveMatch{start: lv.start, n: c}
				k++
			}
		}
		live = live[:k]
		if c := t.Root.childBySym(sym); c != nil {
			live = append(live, liveMatch{start: i, n: c})
		}
	}
	if len(live) == 0 {
		return nil, 0
	}
	// live is ordered by ascending start (new matches join at the back),
	// so the first survivor is the longest suffix.
	return live[0].n, len(ctx) - live[0].start
}

// PredictFrom returns the children of n whose conditional probability
// (child count over n's count) is at least threshold, ordered by
// descending probability with URL tie-break for determinism. order is
// recorded on each prediction. The predicted children are marked used
// (atomically, so concurrent callers never race).
func (t *Tree) PredictFrom(n *Node, threshold float64, order int) []Prediction {
	return t.predictAt(n, threshold, order, true, nil)
}

// PredictFromInto is PredictFrom writing into buf per the
// BufferedPredictor contract: buf's previous contents are discarded and
// the result reuses its backing storage when capacity allows.
func (t *Tree) PredictFromInto(n *Node, threshold float64, order int, buf []Prediction) []Prediction {
	return t.predictAt(n, threshold, order, true, buf)
}

// CandidatesFrom is PredictFrom without any usage marking. Callers that
// post-filter the candidate set (blended prediction) use it and then
// mark only the survivors via MarkPredicted, so the utilization metric
// counts genuine predictions only.
func (t *Tree) CandidatesFrom(n *Node, threshold float64, order int) []Prediction {
	return t.predictAt(n, threshold, order, false, nil)
}

// MarkPredicted marks one node as used by a prediction.
func (t *Tree) MarkPredicted(n *Node) { n.MarkUsed() }

func (t *Tree) predictAt(n *Node, threshold float64, order int, mark bool, buf []Prediction) []Prediction {
	buf = buf[:0]
	if n == nil || n.Count == 0 {
		return buf
	}
	n.EachChild(func(c *Node) bool {
		p := float64(c.Count) / float64(n.Count)
		if p >= threshold {
			if mark {
				c.MarkUsed()
			}
			buf = append(buf, Prediction{URL: t.syms.urls[c.sym], Probability: p, Order: order})
		}
		return true
	})
	SortPredictions(buf)
	return buf
}

// SortPredictions orders predictions by the pinned deterministic total
// order: descending probability, then ascending URL. Every prediction
// path — serial, sharded, delta-merged, and arena-frozen — emits this
// order, so hint sets never depend on map iteration or merge order.
//
// Insertion sort, deliberately: candidate lists are short (a handful of
// children clear the probability threshold) and sort.Slice allocates
// its closure and reflect header, which would break the zero-allocation
// guarantee of the frozen serving path.
func SortPredictions(ps []Prediction) {
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i - 1
		for j >= 0 && predictionLess(p, ps[j]) {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = p
	}
}

// predictionLess is the pinned prediction order: probability
// descending, URL ascending.
func predictionLess(a, b Prediction) bool {
	if a.Probability != b.Probability {
		return a.Probability > b.Probability
	}
	return a.URL < b.URL
}

// NodeCount returns the number of URL nodes in the tree, excluding the
// pseudo-root. This is the paper's space metric.
func (t *Tree) NodeCount() int {
	return countNodes(t.Root) - 1
}

func countNodes(n *Node) int {
	total := 1
	n.EachChild(func(c *Node) bool {
		total += countNodes(c)
		return true
	})
	return total
}

// LeafCount returns the number of leaves (root-to-leaf paths).
func (t *Tree) LeafCount() int {
	if t.Root.IsLeaf() {
		return 0
	}
	return countLeaves(t.Root)
}

func countLeaves(n *Node) int {
	if n.IsLeaf() {
		return 1
	}
	total := 0
	n.EachChild(func(c *Node) bool {
		total += countLeaves(c)
		return true
	})
	return total
}

// Utilization returns the fraction of root-to-leaf paths whose ending
// leaf was used by a prediction — matched as (part of) a lookup context
// or emitted as a prefetch candidate. This follows the paper's §3.3
// definition ("we define a path as a URL sequence from the root to an
// ending leaf; if this path has been used, we mark it useful"): under
// longest-suffix matching, duplicated sub-branches rooted mid-sequence
// are skipped in favor of the longer match, so their full paths stay
// unused. An empty tree reports zero.
func (t *Tree) Utilization() float64 {
	if t.Root.IsLeaf() {
		return 0
	}
	leaves, used := 0, 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			leaves++
			if n.used.Load() {
				used++
			}
			return
		}
		n.EachChild(func(c *Node) bool {
			walk(c)
			return true
		})
	}
	t.Root.EachChild(func(c *Node) bool {
		walk(c)
		return true
	})
	if leaves == 0 {
		return 0
	}
	return float64(used) / float64(leaves)
}

// ResetUsage clears all usage marks.
func (t *Tree) ResetUsage() {
	var walk func(n *Node)
	walk = func(n *Node) {
		n.used.Store(false)
		n.EachChild(func(c *Node) bool {
			walk(c)
			return true
		})
	}
	walk(t.Root)
}

// MarkPath marks every node along the exact path seq as used. Unknown
// paths are ignored. Prediction code calls this for the matched context
// so that interior usage is visible in diagnostics.
func (t *Tree) MarkPath(seq []string) {
	n := t.Root
	for _, u := range seq {
		sym, ok := t.syms.lookup(u)
		if !ok {
			return
		}
		n = n.childBySym(sym)
		if n == nil {
			return
		}
		n.MarkUsed()
	}
}

// Prune removes every non-root node (and its subtree) for which remove
// returns true, and returns the number of nodes removed. remove is
// called with the node's parent (possibly the pseudo-root) and the node.
func (t *Tree) Prune(remove func(parent, child *Node) bool) int {
	removed := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		var doomed []uint32
		n.EachChild(func(c *Node) bool {
			if remove(n, c) {
				removed += countNodes(c)
				doomed = append(doomed, c.sym)
			} else {
				walk(c)
			}
			return true
		})
		for _, sym := range doomed {
			n.removeChildSym(sym)
		}
	}
	walk(t.Root)
	return removed
}

// sortedChildren returns n's children ordered by URL.
func (t *Tree) sortedChildren(n *Node) []*Node {
	out := make([]*Node, 0, n.Fanout())
	n.EachChild(func(c *Node) bool {
		out = append(out, c)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return t.syms.urls[out[i].sym] < t.syms.urls[out[j].sym]
	})
	return out
}

// Walk visits every node in depth-first order with its path from the
// pseudo-root. Visiting order over siblings is sorted by URL so walks
// are deterministic.
func (t *Tree) Walk(fn func(path []string, n *Node)) {
	var walk func(prefix []string, n *Node)
	walk = func(prefix []string, n *Node) {
		for _, c := range t.sortedChildren(n) {
			path := append(prefix[:len(prefix):len(prefix)], t.syms.urls[c.sym])
			fn(path, c)
			walk(path, c)
		}
	}
	walk(nil, t.Root)
}

// String renders the tree in a compact indented format for debugging
// and golden tests: one "url/count" per line, two spaces per depth.
func (t *Tree) String() string {
	var sb strings.Builder
	t.Walk(func(path []string, n *Node) {
		sb.WriteString(strings.Repeat("  ", len(path)-1))
		fmt.Fprintf(&sb, "%s/%d\n", path[len(path)-1], n.Count)
	})
	return sb.String()
}

// Merge folds other's counts into t, node by node — the cooperative
// scenario of the paper's related work where service proxies aggregate
// prediction state from multiple home servers, and the fold step of
// TrainAllParallel. other is not modified. Usage marks are not merged
// (they are prediction-phase scratch).
func (t *Tree) Merge(other *Tree) {
	t.Root.Count += other.Root.Count
	if t.syms == other.syms {
		var merge func(dst, src *Node)
		merge = func(dst, src *Node) {
			src.EachChild(func(sc *Node) bool {
				dc := dst.ensureChildSym(sc.sym)
				dc.Count += sc.Count
				merge(dc, sc)
				return true
			})
		}
		merge(t.Root, other.Root)
		return
	}
	// Different symbol tables: translate lazily through a remap slice
	// (src symbol → dst symbol; 0 marks not-yet-seen, safe because
	// symbol 0 is reserved for the pseudo-root and never keys a child).
	remap := make([]uint32, len(other.syms.urls))
	var merge func(dst, src *Node)
	merge = func(dst, src *Node) {
		src.EachChild(func(sc *Node) bool {
			sym := remap[sc.sym]
			if sym == 0 {
				sym = t.syms.intern(other.syms.urls[sc.sym])
				remap[sc.sym] = sym
			}
			dc := dst.ensureChildSym(sym)
			dc.Count += sc.Count
			merge(dc, sc)
			return true
		})
	}
	merge(t.Root, other.Root)
}

// Clone returns a deep copy of the tree: every node, child container,
// and the symbol table are fresh allocations, so training into or
// merging into the clone never mutates the receiver. This is the
// copy-on-write step of incremental maintenance: the published snapshot
// stays live and read-only while its clone absorbs a delta. Usage marks
// are not copied (they are prediction-phase scratch).
//
// The receiver must not be trained concurrently with Clone; cloning a
// published (read-only) snapshot is always safe.
func (t *Tree) Clone() *Tree {
	return &Tree{Root: cloneNode(t.Root), syms: t.syms.clone()}
}

func cloneNode(n *Node) *Node {
	c := &Node{Count: n.Count, sym: n.sym}
	if n.big != nil {
		c.big = make(map[uint32]*Node, len(n.big))
		for sym, ch := range n.big {
			c.big[sym] = cloneNode(ch)
		}
		return c
	}
	if len(n.small) > 0 {
		c.small = make([]childRef, len(n.small))
		for i, cr := range n.small {
			c.small[i] = childRef{sym: cr.sym, node: cloneNode(cr.node)}
		}
	}
	return c
}

// CopyIf returns a new tree containing only the nodes for which keep
// returns true; rejecting a node skips its entire subtree. The copy
// shares t's symbol table (so it costs no string duplication) and must
// therefore not be read concurrently with training that mutates t.
// Usage marks are not copied.
func (t *Tree) CopyIf(keep func(parent, child *Node) bool) *Tree {
	out := &Tree{Root: &Node{Count: t.Root.Count}, syms: t.syms}
	var cp func(src, dst *Node)
	cp = func(src, dst *Node) {
		src.EachChild(func(sc *Node) bool {
			if !keep(src, sc) {
				return true
			}
			dc := dst.ensureChildSym(sc.sym)
			dc.Count = sc.Count
			cp(sc, dc)
			return true
		})
	}
	cp(t.Root, out.Root)
	return out
}
