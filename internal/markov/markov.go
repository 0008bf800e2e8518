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
// is kept once per tree. Nodes are addressed by a uint32 id and hold no
// Go pointer: per node a 24-byte record of its count, its symbol, and
// where its child run starts, how long it is and how long it may grow
// in place; per child an 8-byte (symbol, id) entry in its parent's run,
// which is sorted by symbol and searched by bisection. Records fill
// chunks of 1,024 in turn, so growing a tree copies at most the chunk
// it is filling, and the GC scans a tree's few slice headers and its
// symbol table rather than its nodes. Prune and CopyIf leave a compact
// tree that holds only the surviving nodes, about 32 bytes a node plus
// its URLs and, after Prune, the unused room of its last chunk.
package markov

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

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

// Root is the id of every tree's pseudo-root. No path and no child is
// the pseudo-root, so the lookups that find a node (Match, Child)
// return Root when there is none.
const Root uint32 = 0

// node is the record of one URL occurrence context: count is the number
// of training accesses that reached it along its path, and its children
// are the run kids[first:first+fanout] of its tree, which may grow to
// room entries before it moves.
type node struct {
	count                    int64
	sym, first, fanout, room uint32
}

// kid is one entry of a child run: the child's symbol, which runs are
// sorted by, and its node id.
type kid struct{ sym, node uint32 }

// chunkBits sizes the chunks node records live in: 1<<chunkBits records
// (24 KiB) each. Only the last chunk takes new records; a full chunk
// never moves.
const chunkBits = 10

// Tree is a counted prediction trie under a pseudo-root. The pseudo-root
// itself carries the number of branch insertions and is excluded from
// node counts. A tree is the training-time form of a model: it
// predicts nothing itself, and every prediction comes from its frozen
// Arena (Freeze).
//
// Nodes are addressed by id, Root for the pseudo-root. Ids stay valid
// while the tree grows; Prune renumbers the nodes it keeps.
type Tree struct {
	// chunks holds node id i's record at chunks[i>>chunkBits][i&(1<<chunkBits-1)].
	chunks [][]node
	// kids holds every node's child run.
	kids []kid
	// free[k]-1 is the start of a free block of at least 1<<k entries in
	// kids, whose first entry's node field chains to the next block of
	// the class the same way; 0 ends a chain. Runs that outgrow their
	// room leave their block here for the next run that needs one.
	free [32]uint32

	syms *symtab
	// scratch is internAll's buffer.
	scratch []uint32
}

// NewTree returns an empty tree.
func NewTree() *Tree {
	return &Tree{chunks: [][]node{{{}}}, syms: newSymtab()}
}

// at returns the record of node n. It stays valid until the next node
// is added, which may move the last chunk.
func (t *Tree) at(n uint32) *node {
	return &t.chunks[n>>chunkBits][n&(1<<chunkBits-1)]
}

// size returns the number of nodes, the pseudo-root included.
func (t *Tree) size() int {
	last := len(t.chunks) - 1
	return last<<chunkBits + len(t.chunks[last])
}

// newNode adds a childless node for symbol sym and returns its id.
func (t *Tree) newNode(sym uint32) uint32 {
	id := uint32(t.size())
	last := &t.chunks[len(t.chunks)-1]
	switch {
	case len(*last) == 1<<chunkBits:
		t.chunks = append(t.chunks, make([]node, 0, 1<<chunkBits))
		last = &t.chunks[len(t.chunks)-1]
	case len(*last) == cap(*last):
		// A small tree's chunk doubles, up to a full one and no further.
		*last = append(make([]node, 0, min(2*cap(*last), 1<<chunkBits)), *last...)
	}
	*last = append(*last, node{sym: sym})
	return id
}

// run returns node n's children, sorted by symbol.
func (t *Tree) run(n uint32) []kid {
	p := t.at(n)
	return t.kids[p.first : p.first+p.fanout]
}

// search returns the position of sym in run, or where it would go.
func search(run []kid, sym uint32) (int, bool) {
	// Symbols are dense from 1, and a suffix trie's root holds nearly
	// all of them, so sym's own rank is the first place to look.
	if i := int(sym) - 1; i < len(run) && run[i].sym == sym {
		return i, true
	}
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if run[mid].sym < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(run) && run[lo].sym == sym
}

// childBySym returns n's child with symbol sym, or Root.
func (t *Tree) childBySym(n, sym uint32) uint32 {
	run := t.run(n)
	if i, ok := search(run, sym); ok {
		return run[i].node
	}
	return Root
}

// Intern returns url's symbol in the tree, assigning the next free one
// on first sight. Symbols are dense from 1 and never change, so a model
// may index what it knows about a URL by its symbol.
func (t *Tree) Intern(url string) uint32 { return t.syms.intern(url) }

// EnsureChild returns n's child with symbol sym (from Intern), creating
// it with zero count if absent.
func (t *Tree) EnsureChild(n, sym uint32) uint32 {
	run := t.run(n)
	i, ok := search(run, sym)
	if ok {
		return run[i].node
	}
	c := t.newNode(sym)
	p := t.at(n)
	if p.fanout == p.room {
		t.regrow(p)
	}
	run = t.kids[p.first : p.first+p.fanout+1]
	copy(run[i+1:], run[i:])
	run[i] = kid{sym, c}
	p.fanout++
	return c
}

// regrow moves p's full child run to a block of the next power of two
// above its room, and frees the old block.
func (t *Tree) regrow(p *node) {
	room := uint32(1) << bits.Len32(p.room)
	k := bits.TrailingZeros32(room)
	at := t.free[k]
	if at != 0 {
		at--
		t.free[k] = t.kids[at].node
	} else {
		at = uint32(len(t.kids))
		t.kids = append(t.kids, make([]kid, room)...)
	}
	copy(t.kids[at:], t.kids[p.first:p.first+p.fanout])
	if p.room > 0 {
		k := bits.Len32(p.room) - 1
		t.kids[p.first].node = t.free[k]
		t.free[k] = p.first + 1
	}
	p.first, p.room = at, room
}

// Count returns n's training count.
func (t *Tree) Count(n uint32) int64 { return t.at(n).count }

// Add adds w to n's training count.
func (t *Tree) Add(n uint32, w int64) { t.at(n).count += w }

// Fanout reports the number of n's children.
func (t *Tree) Fanout(n uint32) int { return int(t.at(n).fanout) }

// IsLeaf reports whether n has no children.
func (t *Tree) IsLeaf(n uint32) bool { return t.at(n).fanout == 0 }

// URLOf resolves a node's URL through the tree's symbol table. The
// pseudo-root resolves to the empty string.
func (t *Tree) URLOf(n uint32) string { return t.syms.urls[t.at(n).sym] }

// SymbolCount reports the number of distinct URLs interned by the tree.
func (t *Tree) SymbolCount() int { return len(t.syms.urls) - 1 }

// Child returns n's child for url, or Root. URLs never seen by the tree
// resolve to Root without mutating the symbol table.
func (t *Tree) Child(n uint32, url string) uint32 {
	sym, ok := t.syms.lookup(url)
	if !ok {
		return Root
	}
	return t.childBySym(n, sym)
}

// EachChild visits n's children with their URLs, in symbol order, until
// fn returns false. fn must not modify the tree.
func (t *Tree) EachChild(n uint32, fn func(url string, c uint32) bool) {
	for _, k := range t.run(n) {
		if !fn(t.syms.urls[k.sym], k.node) {
			return
		}
	}
}

// Insert adds seq as a branch from the pseudo-root, incrementing counts
// by weight along the path. maxDepth > 0 truncates the branch to that
// many nodes; maxDepth <= 0 means unbounded. weight must be positive.
func (t *Tree) Insert(seq []string, maxDepth int, weight int64) {
	if weight <= 0 {
		panic(fmt.Sprintf("markov: non-positive insert weight %d", weight))
	}
	if maxDepth > 0 && len(seq) > maxDepth {
		seq = seq[:maxDepth] // URLs past the cap get no symbol
	}
	t.insert(t.internAll(seq), 0, weight)
}

// InsertSuffixes inserts every suffix of seq as a branch of weight 1,
// truncated like Insert's, interning each URL once: the training step
// of the suffix-trie models (standard PPM and LRS).
func (t *Tree) InsertSuffixes(seq []string, maxDepth int) {
	syms := t.internAll(seq)
	for i := range syms {
		t.insert(syms[i:], maxDepth, 1)
	}
}

// internAll returns the symbols of seq, in a buffer the next call
// reuses.
func (t *Tree) internAll(seq []string) []uint32 {
	t.scratch = t.scratch[:0]
	for _, u := range seq {
		t.scratch = append(t.scratch, t.syms.intern(u))
	}
	return t.scratch
}

// insert adds the branch of symbols syms, truncated to maxDepth nodes
// when maxDepth > 0, incrementing counts by weight along the path.
func (t *Tree) insert(syms []uint32, maxDepth int, weight int64) {
	if len(syms) == 0 {
		return
	}
	if maxDepth > 0 && len(syms) > maxDepth {
		syms = syms[:maxDepth]
	}
	t.Add(Root, weight)
	n := Root
	for _, sym := range syms {
		n = t.EnsureChild(n, sym)
		t.Add(n, weight)
	}
}

// Match walks the exact path seq from the pseudo-root and returns the
// final node, or Root if the path is absent or empty.
func (t *Tree) Match(seq []string) uint32 {
	n := Root
	for _, u := range seq {
		if n = t.Child(n, u); n == Root {
			return Root
		}
	}
	return n
}

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
	// other methods. The model must not keep seq or write to it: it may
	// keep the URL strings, but the caller may reuse the slice for the
	// next session, as the maintainer's window does.
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
func (t *Tree) NodeCount() int { return t.size() - 1 }

// Prune removes every non-root node (and its subtree) for which remove
// returns true, and returns the number of nodes removed. remove is
// called with the node's parent (possibly the pseudo-root) and the node,
// by their ids before the prune. The surviving nodes are renumbered in
// place, keeping their order, and the tree lets go of its old child
// runs and of every chunk they no longer reach; the last chunk they
// reach keeps its room, at most 1<<chunkBits records.
func (t *Tree) Prune(remove func(parent, child uint32) bool) int {
	renum, kept := t.survivors(func(parent, child uint32) bool { return !remove(parent, child) })
	removed := t.size() - kept
	t.compactInto(t, renum, kept)
	last := (kept - 1) >> chunkBits
	clear(t.chunks[last+1:])
	t.chunks = t.chunks[:last+1]
	t.chunks[last] = t.chunks[last][:kept-last<<chunkBits]
	t.free = [32]uint32{}
	return removed
}

// CopyIf returns a new tree containing only the nodes for which keep
// returns true; rejecting a node skips its entire subtree. The copy is
// compact: its columns and child runs are exactly as long as it needs.
// It shares t's symbol table (so it costs no string duplication) and
// must therefore not be read concurrently with training that mutates t.
func (t *Tree) CopyIf(keep func(parent, child uint32) bool) *Tree {
	renum, kept := t.survivors(keep)
	out := &Tree{syms: t.syms}
	for rest := kept; rest > 0; rest -= 1 << chunkBits {
		out.chunks = append(out.chunks, make([]node, min(rest, 1<<chunkBits)))
	}
	t.compactInto(out, renum, kept)
	return out
}

// survivors decides which nodes survive: the root, and each node keep
// accepts whose parent survives. renum[i] is survivor i's id among
// the survivors, in id order, and 0 for every other node but the root.
// A node's id exceeds its parent's, so one pass in id order decides
// each parent before its children.
func (t *Tree) survivors(keep func(parent, child uint32) bool) (renum []uint32, kept int) {
	renum = make([]uint32, t.size())
	kept = 1
	for i := range renum {
		if i > 0 {
			if renum[i] == 0 {
				continue
			}
			renum[i] = uint32(kept)
			kept++
		}
		for _, k := range t.run(uint32(i)) {
			if keep(uint32(i), k.node) {
				renum[k.node] = 1 // numbered when the pass reaches it
			}
		}
	}
	return renum, kept
}

// compactInto writes t's survivors to their new ids in dst, which has
// room for them and may be t itself (no survivor's new id exceeds its
// old one), with child runs exactly as long as they are in a new kids
// column.
func (t *Tree) compactInto(dst *Tree, renum []uint32, kept int) {
	kids := make([]kid, 0, kept-1)
	for i, id := range renum {
		if i > 0 && id == 0 {
			continue
		}
		n := *t.at(uint32(i))
		first := uint32(len(kids))
		for _, k := range t.kids[n.first : n.first+n.fanout] {
			if c := renum[k.node]; c != 0 {
				kids = append(kids, kid{k.sym, c})
			}
		}
		n.first, n.fanout = first, uint32(len(kids))-first
		n.room = n.fanout
		*dst.at(id) = n
	}
	dst.kids = kids
}

// sortedChildren returns n's children ordered by URL.
func (t *Tree) sortedChildren(n uint32) []kid {
	out := slices.Clone(t.run(n))
	slices.SortFunc(out, func(a, b kid) int { return strings.Compare(t.syms.urls[a.sym], t.syms.urls[b.sym]) })
	return out
}

// Walk visits every node in depth-first order with its path from the
// pseudo-root. Visiting order over siblings is sorted by URL so walks
// are deterministic.
func (t *Tree) Walk(fn func(path []string, n uint32)) {
	var walk func(prefix []string, n uint32)
	walk = func(prefix []string, n uint32) {
		for _, c := range t.sortedChildren(n) {
			path := append(prefix[:len(prefix):len(prefix)], t.syms.urls[c.sym])
			fn(path, c.node)
			walk(path, c.node)
		}
	}
	walk(nil, Root)
}

// String renders the tree in a compact indented format for debugging
// and golden tests: one "url/count" per line, two spaces per depth.
func (t *Tree) String() string {
	var sb strings.Builder
	t.Walk(func(path []string, n uint32) {
		sb.WriteString(strings.Repeat("  ", len(path)-1))
		fmt.Fprintf(&sb, "%s/%d\n", path[len(path)-1], t.Count(n))
	})
	return sb.String()
}
