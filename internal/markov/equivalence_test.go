package markov

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refNode/refTree are a deliberately naive map-based prediction trie —
// the representation the compact layout replaced. The golden test below
// checks the compact tree against it prediction-for-prediction, so the
// storage change is provably behavior-free.
type refNode struct {
	url      string
	count    int64
	children map[string]*refNode
}

type refTree struct {
	root *refNode
}

func newRefTree() *refTree {
	return &refTree{root: &refNode{children: map[string]*refNode{}}}
}

func (t *refTree) insert(seq []string, maxDepth int, weight int64) {
	if len(seq) == 0 {
		return
	}
	t.root.count += weight
	n := t.root
	for i, u := range seq {
		if maxDepth > 0 && i >= maxDepth {
			break
		}
		c := n.children[u]
		if c == nil {
			c = &refNode{url: u, children: map[string]*refNode{}}
			n.children[u] = c
		}
		c.count += weight
		n = c
	}
}

func (t *refTree) match(seq []string) *refNode {
	n := t.root
	for _, u := range seq {
		n = n.children[u]
		if n == nil {
			return nil
		}
	}
	if n == t.root {
		return nil
	}
	return n
}

func (t *refTree) longestMatch(ctx []string) (*refNode, int) {
	for i := 0; i < len(ctx); i++ {
		if n := t.match(ctx[i:]); n != nil {
			return n, len(ctx) - i
		}
	}
	return nil, 0
}

func (t *refTree) predictFrom(n *refNode, threshold float64, order int) []Prediction {
	if n == nil || n.count == 0 {
		return nil
	}
	var out []Prediction
	for _, c := range n.children {
		p := float64(c.count) / float64(n.count)
		if p >= threshold {
			out = append(out, Prediction{URL: c.url, Probability: p, Order: order})
		}
	}
	SortPredictions(out)
	return out
}

// treeCandidates is the longest-match prediction the pointer tree made
// itself before every model predicted from its arena, kept as an
// oracle: the longest suffix of ctx that is a path from the root, found
// by rescanning each suffix, and its children at or above threshold,
// each carrying the suffix length as its order.
func treeCandidates(tr *Tree, ctx []string, threshold float64) []Prediction {
	for i := range ctx {
		n := tr.Match(ctx[i:])
		if n == Root {
			continue
		}
		if tr.Count(n) == 0 {
			return nil
		}
		var out []Prediction
		tr.EachChild(n, func(url string, c uint32) bool {
			if p := float64(tr.Count(c)) / float64(tr.Count(n)); p >= threshold {
				out = append(out, Prediction{URL: url, Probability: p, Order: len(ctx) - i})
			}
			return true
		})
		SortPredictions(out)
		return out
	}
	return nil
}

func (t *refTree) nodeCount(n *refNode) int {
	total := 1
	for _, c := range n.children {
		total += t.nodeCount(c)
	}
	return total
}

// TestCompactTreeEquivalence trains the compact tree and the map-based
// reference on identical random workloads and requires bit-for-bit
// identical predictions across random contexts (read off the compact
// tree through Match and EachChild), plus identical node counts and
// longest-match orders. This is the acceptance-criteria guarantee that
// the storage layout cannot move any headline metric.
func TestCompactTreeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	urls := make([]string, 40)
	for i := range urls {
		urls[i] = url(i)
	}
	for round := 0; round < 5; round++ {
		maxDepth := round % 3 // 0 = unbounded, then caps 1 and 2
		tr := NewTree()
		ref := newRefTree()
		for i := 0; i < 800; i++ {
			s := make([]string, rng.Intn(7)+1)
			for j := range s {
				// Zipf-ish skew so some child runs grow wide and
				// others stay tiny.
				s[j] = urls[rng.Intn(rng.Intn(len(urls))+1)]
			}
			w := int64(rng.Intn(3) + 1)
			tr.Insert(s, maxDepth, w)
			ref.insert(s, maxDepth, w)
		}

		if got, want := tr.NodeCount(), ref.nodeCount(ref.root)-1; got != want {
			t.Fatalf("round %d: NodeCount = %d, reference %d", round, got, want)
		}

		ctxURLs := append([]string{"/not-in-training"}, urls...)
		for i := 0; i < 2000; i++ {
			ctx := make([]string, rng.Intn(6))
			for j := range ctx {
				ctx[j] = ctxURLs[rng.Intn(len(ctxURLs))]
			}
			threshold := []float64{0, 0.1, 0.25, 0.6}[i%4]

			gorder := 0
			for i := range ctx {
				if tr.Match(ctx[i:]) != Root {
					gorder = len(ctx) - i
					break
				}
			}
			wn, worder := ref.longestMatch(ctx)
			if gorder != worder {
				t.Fatalf("round %d ctx %v: match order %d vs reference %d", round, ctx, gorder, worder)
			}
			got := treeCandidates(tr, ctx, threshold)
			want := ref.predictFrom(wn, threshold, worder)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d ctx %v thr %v:\n got %+v\nwant %+v", round, ctx, threshold, got, want)
			}
		}
	}
}

// TestWalkMatchesReferenceOrder checks the deterministic walk against a
// reference sorted traversal after a skewed workload.
func TestWalkMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := NewTree()
	ref := newRefTree()
	for i := 0; i < 300; i++ {
		s := []string{url(rng.Intn(30)), url(rng.Intn(30))}
		tr.Insert(s, 0, 1)
		ref.insert(s, 0, 1)
	}
	var got []string
	tr.Walk(func(path []string, n uint32) {
		got = append(got, fmt.Sprintf("%s#%d#%d", path[len(path)-1], len(path), tr.Count(n)))
	})
	var want []string
	var walk func(depth int, n *refNode)
	walk = func(depth int, n *refNode) {
		keys := make([]string, 0, len(n.children))
		for k := range n.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := n.children[k]
			want = append(want, fmt.Sprintf("%s#%d#%d", k, depth+1, c.count))
			walk(depth+1, c)
		}
	}
	walk(0, ref.root)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk order diverged from reference:\n got %v\nwant %v", got, want)
	}
}
