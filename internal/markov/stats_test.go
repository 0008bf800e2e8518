package markov

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestTreeStats(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"a", "b", "c"}, 0, 2)
	tr.Insert([]string{"a", "d"}, 0, 1)
	tr.Insert([]string{"x"}, 0, 5)

	st := tr.Stats()
	if st.Nodes != 5 {
		t.Errorf("Nodes = %d, want 5", st.Nodes)
	}
	if st.Roots != 2 || st.Leaves != 3 {
		t.Errorf("Roots=%d Leaves=%d", st.Roots, st.Leaves)
	}
	if st.MaxDepth != 3 {
		t.Errorf("MaxDepth = %d", st.MaxDepth)
	}
	// Depth histogram: depth0 {a,x}=2, depth1 {b,d}=2, depth2 {c}=1.
	want := []int{2, 2, 1}
	for i, n := range want {
		if st.DepthHistogram[i] != n {
			t.Errorf("hist[%d] = %d, want %d", i, st.DepthHistogram[i], n)
		}
	}
	// TotalCount: a=3, b=2, c=2, d=1, x=5 → 13.
	if st.TotalCount != 13 {
		t.Errorf("TotalCount = %d", st.TotalCount)
	}
	// Internal nodes: a (2 children), b (1 child) → mean 1.5.
	if st.MeanBranching != 1.5 {
		t.Errorf("MeanBranching = %v", st.MeanBranching)
	}
	if st.Bytes <= 0 {
		t.Error("Bytes not measured")
	}
	if st.Symbols != 5 {
		t.Errorf("Symbols = %d, want 5", st.Symbols)
	}
	out := st.String()
	if !strings.Contains(out, "nodes 5") || !strings.Contains(out, "depth histogram") {
		t.Errorf("String:\n%s", out)
	}
}

func TestBytesEstimate(t *testing.T) {
	tr := NewTree()
	base := tr.BytesEstimate()
	if base <= 0 {
		t.Fatalf("empty tree BytesEstimate = %d", base)
	}
	tr.Insert([]string{"/a", "/b"}, 0, 1)
	grown := tr.BytesEstimate()
	if grown <= base {
		t.Errorf("BytesEstimate did not grow: %d -> %d", base, grown)
	}
	// Interning: re-using the same URLs in a new branch must cost less
	// than the first branch did (no new string storage).
	tr.Insert([]string{"/b", "/a"}, 0, 1)
	reused := tr.BytesEstimate()
	if reused-grown >= grown-base {
		t.Errorf("re-used URLs cost as much as fresh ones: +%d vs +%d", reused-grown, grown-base)
	}
}

func TestTreeStatsEmpty(t *testing.T) {
	st := NewTree().Stats()
	if st.Nodes != 0 || st.Leaves != 0 || st.MaxDepth != 0 || st.MeanBranching != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

// treeBacked is a minimal Predictor exposing its tree, mirroring the
// real models' Tree() accessor.
type treeBacked struct {
	Predictor
	tree *Tree
}

func (m treeBacked) Tree() *Tree { return m.tree }

// treeless is a Predictor without a tree (the Top-N shape).
type treeless struct{ Predictor }

func TestStatsOf(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"a", "b"}, 0, 1)
	st, ok := StatsOf(treeBacked{tree: tr})
	if !ok {
		t.Fatal("StatsOf reported no tree for a tree-backed model")
	}
	if st.Nodes != 2 {
		t.Errorf("Nodes = %d, want 2", st.Nodes)
	}
	if _, ok := StatsOf(treeless{}); ok {
		t.Error("StatsOf reported a tree for a treeless model")
	}
	if _, ok := StatsOf(treeBacked{tree: nil}); ok {
		t.Error("StatsOf reported stats for a nil tree")
	}
}

func TestTopBranches(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"hot"}, 0, 10)
	tr.Insert([]string{"warm"}, 0, 5)
	tr.Insert([]string{"cold"}, 0, 1)
	a := tr.Freeze()

	top := a.TopBranches(2)
	if len(top) != 2 || top[0].URL != "hot" || top[1].URL != "warm" {
		t.Fatalf("TopBranches = %+v", top)
	}
	if top[0].Probability != 10.0/16 {
		t.Errorf("P(hot) = %v", top[0].Probability)
	}
	if got := a.TopBranches(99); len(got) != 3 {
		t.Errorf("TopBranches(99) = %d entries", len(got))
	}
	if got := NewTree().Freeze().TopBranches(3); len(got) != 0 {
		t.Errorf("empty tree TopBranches = %+v", got)
	}
}

// TestTreeRetainedBytesPerNode trains a large random trie over a small
// URL set, prunes most of it, and bounds the heap the pruned tree keeps
// per live node after a GC. A tree of columns keeps a 24-byte record
// and an 8-byte child entry a node, plus at most one chunk of records
// to spare; a tree of one Go object per node, with a child slice in its
// parent, kept 64 bytes and more.
func TestTreeRetainedBytesPerNode(t *testing.T) {
	const maxBytesPerNode = 40
	urls := make([]string, 24)
	for i := range urls {
		urls[i] = url(i)
	}
	rng := rand.New(rand.NewSource(5))
	seq := make([]string, 7)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := NewTree()
	for i := 0; i < 60_000; i++ {
		for j := range seq {
			seq[j] = urls[rng.Intn(len(urls))]
		}
		tr.Insert(seq, 0, 1)
	}
	trained := tr.NodeCount()
	tr.Prune(func(_, child uint32) bool { return tr.Count(child) <= 1 })
	runtime.GC()
	runtime.ReadMemStats(&after)

	live := tr.NodeCount()
	if live*4 > trained {
		t.Fatalf("pruning kept %d of %d nodes; the test wants most of the trie pruned", live, trained)
	}
	perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(live)
	t.Logf("%d of %d nodes kept, %.1f B of heap a node", live, trained, perNode)
	if perNode > maxBytesPerNode {
		t.Errorf("the pruned tree keeps %.1f B of heap a node, want at most %d", perNode, maxBytesPerNode)
	}
	runtime.KeepAlive(tr)
}
