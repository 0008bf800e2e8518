// Package markov provides the Markov prediction-tree substrate shared by
// the three PPM prefetching models in the paper (standard PPM, LRS-PPM,
// and popularity-based PPM): the counted trie the models train and
// prune, the frozen arena every model predicts from (longest-suffix
// matching, threshold-based prediction, and the usage marks of the
// path-utilization metric), and the Predictor interface the simulator
// and the server drive.
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
// The frozen tree every tree model freezes to (FrozenTree) and Top-N's
// snapshot implement it, and both make zero allocations per call once
// the buffer is warm. Callers
// holding only a Predictor use the PredictInto helper.
type BufferedPredictor interface {
	Predictor
	// PredictInto is Predict writing into buf per the contract above.
	PredictInto(context []string, buf []Prediction) []Prediction
}

// Freezer is implemented by models that can freeze their trained state
// into an immutable serving snapshot (a tree model's is GC-free, see
// Arena). The frozen
// predictor is the model's one predict implementation (its live Predict
// answers from a fresh freeze), cannot be trained, and is safe for
// unsynchronized concurrent use.
type Freezer interface {
	Freeze() Predictor
}

// Freeze returns the snapshot a trained model is published as: p's
// frozen form when p is a Freezer, and p itself otherwise (frozen
// models, wrappers). Every install path — the server, the
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
	// far (oldest first; the last element is the current click). A
	// trainable model answers from a snapshot of itself frozen for the
	// call, so hot paths predict from Freeze(p) instead. Once training
	// has ceased, Predict is safe for concurrent use, and a frozen
	// snapshot performs no writes at all.
	Predict(context []string) []Prediction
	// NodeCount reports the model's storage requirement in URL nodes,
	// the paper's space metric.
	NodeCount() int
}

// Tree is a counted prediction trie under a pseudo-root. The pseudo-root
// itself carries the number of branch insertions and is excluded from
// node counts. A tree is the training-time form of a model: it
// predicts nothing itself, and every prediction comes from its frozen
// Arena (Freeze).
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

// SortPredictions orders predictions by the pinned deterministic total
// order: descending probability, then ascending URL. Every prediction
// path — trained from scratch, delta-merged after a freeze, and
// arena-frozen — emits this order, so hint sets never depend on map
// iteration or training order.
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

// CopyIf returns a new tree containing only the nodes for which keep
// returns true; rejecting a node skips its entire subtree. The copy
// shares t's symbol table (so it costs no string duplication) and must
// therefore not be read concurrently with training that mutates t.
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
