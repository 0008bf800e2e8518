package markov

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func seq(urls ...string) []string { return urls }

func TestInsertAndMatch(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b", "c"), 0, 1)
	tr.Insert(seq("a", "b"), 0, 1)
	tr.Insert(seq("a", "x"), 0, 1)

	if n := tr.Match(seq("a")); n == Root || tr.Count(n) != 3 {
		t.Fatalf("Match(a) = %d, want count 3", n)
	}
	if n := tr.Match(seq("a", "b")); n == Root || tr.Count(n) != 2 {
		t.Fatalf("Match(a,b) = %d, want count 2", n)
	}
	if n := tr.Match(seq("a", "b", "c")); n == Root || tr.Count(n) != 1 {
		t.Fatalf("Match(a,b,c) = %d", n)
	}
	if n := tr.Match(seq("z")); n != Root {
		t.Errorf("Match(z) = %d, want none", n)
	}
	if n := tr.Match(nil); n != Root {
		t.Errorf("Match(empty) = %d, want none", n)
	}
	if tr.Count(Root) != 3 {
		t.Errorf("pseudo-root count = %d, want 3", tr.Count(Root))
	}
}

func TestInsertMaxDepth(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b", "c", "d"), 2, 1)
	if tr.Match(seq("a", "b")) == Root {
		t.Error("depth-2 path missing")
	}
	if tr.Match(seq("a", "b", "c")) != Root {
		t.Error("depth-3 node present despite maxDepth 2")
	}
	if got := tr.NodeCount(); got != 2 {
		t.Errorf("NodeCount = %d, want 2", got)
	}
}

func TestInsertWeight(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b"), 0, 5)
	if n := tr.Match(seq("a", "b")); tr.Count(n) != 5 {
		t.Errorf("weighted count = %d, want 5", tr.Count(n))
	}
}

func TestInsertZeroWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert(weight=0) did not panic")
		}
	}()
	NewTree().Insert(seq("a"), 0, 0)
}

func TestInsertEmptySequence(t *testing.T) {
	tr := NewTree()
	tr.Insert(nil, 0, 1)
	if tr.NodeCount() != 0 || tr.Count(Root) != 0 {
		t.Errorf("empty insert changed tree: %d nodes", tr.NodeCount())
	}
}

func TestTreeChildAndURLOf(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b"), 0, 1)
	a := tr.Child(Root, "a")
	if a == Root || tr.URLOf(a) != "a" {
		t.Fatalf("Child(root, a) = %d", a)
	}
	if b := tr.Child(a, "b"); b == Root || tr.URLOf(b) != "b" {
		t.Fatalf("Child(a, b) = %d", b)
	}
	if tr.Child(a, "never-seen") != Root {
		t.Error("Child on unseen URL found a node")
	}
	// Child on an unseen URL must not grow the symbol table.
	if got := tr.SymbolCount(); got != 2 {
		t.Errorf("SymbolCount = %d, want 2", got)
	}
	c := tr.EnsureChild(a, tr.Intern("c"))
	if c == Root || tr.Count(c) != 0 || tr.URLOf(c) != "c" {
		t.Fatalf("EnsureChild = %d", c)
	}
	if tr.EnsureChild(a, tr.Intern("c")) != c {
		t.Error("EnsureChild not idempotent")
	}
}

func TestEachChild(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b"), 0, 1)
	tr.Insert(seq("a", "c"), 0, 1)
	seen := map[string]int64{}
	tr.EachChild(tr.Match(seq("a")), func(url string, c uint32) bool {
		seen[url] = tr.Count(c)
		return true
	})
	if len(seen) != 2 || seen["b"] != 1 || seen["c"] != 1 {
		t.Errorf("EachChild saw %v", seen)
	}
	// Early stop.
	visits := 0
	tr.EachChild(tr.Match(seq("a")), func(string, uint32) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("EachChild ignored stop: %d visits", visits)
	}
}

// TestHubChildRun drives one parent's child run three times past the
// 16 children at which the pointer tree promoted a node to a map, and
// checks that lookups, counts, ordering, and pruning keep working on a
// hub's run.
func TestHubChildRun(t *testing.T) {
	const wide = 16
	tr := NewTree()
	const kids = 3 * wide
	for i := 0; i < kids; i++ {
		tr.Insert(seq("hub", url(i)), 0, int64(i+1))
	}
	hub := tr.Match(seq("hub"))
	if tr.Fanout(hub) != kids {
		t.Fatalf("Fanout = %d, want %d", tr.Fanout(hub), kids)
	}
	for i := 0; i < kids; i++ {
		n := tr.Match(seq("hub", url(i)))
		if n == Root || tr.Count(n) != int64(i+1) {
			t.Fatalf("child %d = %d", i, n)
		}
	}
	if got := tr.NodeCount(); got != kids+1 {
		t.Errorf("NodeCount = %d, want %d", got, kids+1)
	}
	// Walk must stay URL-sorted over the wide run.
	var prev string
	walked := 0
	tr.Walk(func(path []string, n uint32) {
		if len(path) != 2 {
			return
		}
		if u := path[1]; u < prev {
			t.Fatalf("walk order broken: %q after %q", u, prev)
		} else {
			prev = u
		}
		walked++
	})
	if walked != kids {
		t.Errorf("walked %d children, want %d", walked, kids)
	}
	// Prune from the hub's run. Prune renumbers, so look the hub up again.
	removed := tr.Prune(func(parent, child uint32) bool {
		return parent == hub && tr.Count(child) <= int64(wide)
	})
	if removed != wide {
		t.Errorf("removed = %d, want %d", removed, wide)
	}
	hub = tr.Match(seq("hub"))
	if tr.Fanout(hub) != kids-wide {
		t.Errorf("fanout after prune = %d", tr.Fanout(hub))
	}
	if tr.Match(seq("hub", url(0))) != Root {
		t.Error("pruned child still reachable")
	}
	if tr.Match(seq("hub", url(kids-1))) == Root {
		t.Error("surviving child lost")
	}
}

func url(i int) string {
	return "/page-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// urlAt returns the URL of arena node n.
func urlAt(a *Arena, n uint32) string { return a.URLOf(a.sec.sym(n)) }

func TestLongestMatch(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b", "c"), 0, 1)
	tr.Insert(seq("b", "c"), 0, 1)
	tr.Insert(seq("c"), 0, 1)
	a := tr.Freeze()

	n, order, ok := a.LongestMatch(seq("a", "b", "c"))
	if !ok || order != 3 || urlAt(a, n) != "c" {
		t.Fatalf("LongestMatch(a,b,c) = %d order %d, want full match", n, order)
	}
	n, order, ok = a.LongestMatch(seq("z", "b", "c"))
	if !ok || order != 2 {
		t.Fatalf("LongestMatch(z,b,c) order = %d, want 2", order)
	}
	n, order, ok = a.LongestMatch(seq("z", "y", "c"))
	if !ok || order != 1 {
		t.Fatalf("LongestMatch(z,y,c) order = %d, want 1", order)
	}
	n, order, ok = a.LongestMatch(seq("q"))
	if ok || order != 0 {
		t.Fatalf("LongestMatch(q) = %d, want no match", n)
	}
}

func TestLongestMatchPartialDeepSuffix(t *testing.T) {
	// A suffix can start matching and die mid-way; a shorter suffix
	// must still win. a->b exists but a->b->x does not; b->x does not;
	// x does.
	tr := NewTree()
	tr.Insert(seq("a", "b"), 0, 1)
	tr.Insert(seq("x"), 0, 1)
	a := tr.Freeze()
	n, order, ok := a.LongestMatch(seq("a", "b", "x"))
	if !ok || order != 1 || urlAt(a, n) != "x" {
		t.Fatalf("LongestMatch(a,b,x) = %d order %d, want x at order 1", n, order)
	}
	// An unseen URL kills every match running through it.
	n, order, ok = a.LongestMatch(seq("a", "unseen", "a", "b"))
	if !ok || order != 2 || urlAt(a, n) != "b" {
		t.Fatalf("LongestMatch(a,?,a,b) = %d order %d, want a->b", n, order)
	}
	if _, _, ok := a.LongestMatch(nil); ok {
		t.Error("LongestMatch(nil) matched")
	}
}

// TestLongestMatchAgainstRescan cross-checks the arena's streamed match
// against the definitional per-suffix rescan of the pointer tree on
// random trees/contexts.
func TestLongestMatchAgainstRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	urls := []string{"a", "b", "c", "d", "e", "zz"}
	tr := NewTree()
	for i := 0; i < 400; i++ {
		s := make([]string, rng.Intn(5)+1)
		for j := range s {
			s[j] = urls[rng.Intn(len(urls))]
		}
		tr.Insert(s, 0, 1)
	}
	a := tr.Freeze()
	rescan := func(ctx []string) (uint32, int) {
		for i := 0; i < len(ctx); i++ {
			if n := tr.Match(ctx[i:]); n != Root {
				return n, len(ctx) - i
			}
		}
		return Root, 0
	}
	ctxURLs := append([]string{"unseen"}, urls...)
	for i := 0; i < 1000; i++ {
		ctx := make([]string, rng.Intn(7))
		for j := range ctx {
			ctx[j] = ctxURLs[rng.Intn(len(ctxURLs))]
		}
		wantN, wantOrder := rescan(ctx)
		gotN, gotOrder, ok := a.LongestMatch(ctx)
		if ok != (wantN != Root) || gotOrder != wantOrder ||
			(ok && a.Count(gotN) != tr.Count(wantN)) {
			t.Fatalf("ctx %v: got (%d, %d), rescan (%v, %d)", ctx, gotN, gotOrder, wantN, wantOrder)
		}
		if ok {
			if n, _ := a.Match(ctx[len(ctx)-gotOrder:]); n != gotN {
				t.Fatalf("ctx %v: match node %d is not the path of the matched suffix (%d)", ctx, gotN, n)
			}
		}
	}
}

// isSet reports whether node's bit is set in a usage bitset.
func isSet(used []uint64, node uint32) bool { return used[node/64]&(1<<(node%64)) != 0 }

func TestPredictFrom(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 6; i++ {
		tr.Insert(seq("a", "b"), 0, 1)
	}
	for i := 0; i < 3; i++ {
		tr.Insert(seq("a", "c"), 0, 1)
	}
	tr.Insert(seq("a", "d"), 0, 1)
	f := NewFrozenTree(tr.Freeze(), FrozenParams{Threshold: 0.25})
	a := f.Arena()

	n, _ := a.Match(seq("a"))
	used := make([]uint64, 1)
	ps := f.PredictMarking(n, "a", 1, nil, used)
	if len(ps) != 2 {
		t.Fatalf("predictions = %+v, want 2 (b: 0.6, c: 0.3)", ps)
	}
	if ps[0].URL != "b" || ps[0].Probability != 0.6 || ps[0].Order != 1 {
		t.Errorf("first prediction = %+v", ps[0])
	}
	if ps[1].URL != "c" || ps[1].Probability != 0.3 {
		t.Errorf("second prediction = %+v", ps[1])
	}
	// d (0.1) is below threshold and must not be marked used.
	if d, _ := a.Match(seq("a", "d")); isSet(used, d) {
		t.Error("below-threshold child marked used")
	}
	if b, _ := a.Match(seq("a", "b")); !isSet(used, b) {
		t.Error("predicted child not marked used")
	}
	if f.PredictFrom(0, "a", 1, nil) != nil {
		t.Error("PredictFrom(empty match) != nil")
	}
}

func TestPredictDeterministicTieBreak(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "z"), 0, 1)
	tr.Insert(seq("a", "b"), 0, 1)
	a := tr.Freeze()
	n, _ := a.Match(seq("a"))
	ps := a.AppendPredictions(nil, n, 0.1, 1)
	if len(ps) != 2 || ps[0].URL != "b" || ps[1].URL != "z" {
		t.Errorf("tie break order = %+v, want b then z", ps)
	}
}

func TestNodeAndLeafCount(t *testing.T) {
	tr := NewTree()
	if tr.NodeCount() != 0 || tr.Stats().Leaves != 0 {
		t.Error("empty tree counts not zero")
	}
	tr.Insert(seq("a", "b", "c"), 0, 1)
	tr.Insert(seq("a", "d"), 0, 1)
	tr.Insert(seq("x"), 0, 1)
	if got := tr.NodeCount(); got != 5 {
		t.Errorf("NodeCount = %d, want 5", got)
	}
	if got := tr.Stats().Leaves; got != 3 {
		t.Errorf("leaves = %d, want 3", got)
	}
}

func TestPrune(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 10; i++ {
		tr.Insert(seq("a", "b"), 0, 1)
	}
	tr.Insert(seq("a", "rare", "deep"), 0, 1)
	removed := tr.Prune(func(parent, child uint32) bool {
		// "rare" has count 1 of parent "a"'s 11 accesses (~9%).
		return parent != Root && float64(tr.Count(child))/float64(tr.Count(parent)) < 0.1
	})
	if removed != 2 {
		t.Errorf("removed = %d, want 2 (rare and its subtree)", removed)
	}
	if tr.Match(seq("a", "rare")) != Root {
		t.Error("pruned node still present")
	}
	if tr.Match(seq("a", "b")) == Root {
		t.Error("surviving node removed")
	}
}

func TestWalkAndString(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("b", "x"), 0, 1)
	tr.Insert(seq("a"), 0, 2)
	var visits []string
	tr.Walk(func(path []string, n uint32) {
		visits = append(visits, strings.Join(path, ">"))
	})
	want := []string{"a", "b", "b>x"}
	if len(visits) != len(want) {
		t.Fatalf("visits = %v", visits)
	}
	for i := range want {
		if visits[i] != want[i] {
			t.Errorf("visit %d = %s, want %s", i, visits[i], want[i])
		}
	}
	str := tr.String()
	if !strings.Contains(str, "a/2") || !strings.Contains(str, "  x/1") {
		t.Errorf("String() = %q", str)
	}
}

// Property: NodeCount equals the number of distinct prefixes of all
// inserted (depth-capped) sequences.
func TestNodeCountMatchesPrefixSetProperty(t *testing.T) {
	f := func(raw [][]byte, depthSeed uint8) bool {
		tr := NewTree()
		maxDepth := int(depthSeed%5) + 1
		prefixes := make(map[string]bool)
		for _, bs := range raw {
			var s []string
			for _, b := range bs {
				s = append(s, string(rune('a'+int(b)%6)))
			}
			if len(s) > 8 {
				s = s[:8]
			}
			tr.Insert(s, maxDepth, 1)
			for i := 1; i <= len(s) && i <= maxDepth; i++ {
				prefixes[strings.Join(s[:i], "\x00")] = true
			}
		}
		return tr.NodeCount() == len(prefixes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: after any random insert mix, every node's count is at least
// the sum of its children's counts (conservation of flow).
func TestCountConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTree()
	urls := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 500; i++ {
		n := rng.Intn(6) + 1
		s := make([]string, n)
		for j := range s {
			s[j] = urls[rng.Intn(len(urls))]
		}
		tr.Insert(s, rng.Intn(4), 1) // mix of unbounded (0) and capped
	}
	ok := true
	var check func(n uint32)
	check = func(n uint32) {
		var sum int64
		tr.EachChild(n, func(_ string, c uint32) bool {
			sum += tr.Count(c)
			check(c)
			return true
		})
		if tr.Count(n) < sum {
			ok = false
		}
	}
	check(Root)
	if !ok {
		t.Error("count conservation violated")
	}
}

// Property: probabilities emitted with threshold 0 sum to at most 1 and
// each lies in (0, 1].
func TestPredictionProbabilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := NewTree()
	urls := []string{"a", "b", "c", "d"}
	for i := 0; i < 300; i++ {
		s := []string{"root", urls[rng.Intn(4)]}
		tr.Insert(s, 0, 1)
	}
	a := tr.Freeze()
	n, _ := a.Match(seq("root"))
	ps := a.AppendPredictions(nil, n, 0, 1)
	var sum float64
	for _, p := range ps {
		if p.Probability <= 0 || p.Probability > 1 {
			t.Fatalf("probability %v out of range", p.Probability)
		}
		sum += p.Probability
	}
	if sum > 1+1e-9 {
		t.Errorf("probabilities sum to %v > 1", sum)
	}
}

func TestCopyIf(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b"), 0, 3)
	tr.Insert(seq("a", "rare"), 0, 1)
	tr.Insert(seq("solo"), 0, 1)
	cp := tr.CopyIf(func(parent, child uint32) bool { return tr.Count(child) >= 2 })
	if cp.Match(seq("a")) == Root || cp.Match(seq("a", "b")) == Root {
		t.Error("kept branch missing from copy")
	}
	if cp.Match(seq("a", "rare")) != Root || cp.Match(seq("solo")) != Root {
		t.Error("rejected branch present in copy")
	}
	if cp.Count(Root) != tr.Count(Root) {
		t.Errorf("root count = %d, want %d", cp.Count(Root), tr.Count(Root))
	}
	// The copy is independent at the node level: new inserts into the
	// source do not appear in the copy.
	tr.Insert(seq("a", "b", "new"), 0, 5)
	if cp.Match(seq("a", "b", "new")) != Root {
		t.Error("copy shares nodes with source")
	}
}

// TestTrainAfterPrune: a tree pruned in place, and a copy of it, must
// train on like a tree built afresh from the pruned tree's paths. The
// pruned runs are exactly full, so the second round of training moves
// most of them, through the free lists a prune must have reset.
func TestTrainAfterPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 4; round++ {
		tr := randomArenaTree(rng, 600, round%3)
		tr.Prune(func(_, child uint32) bool { return tr.Count(child) <= 1 })
		cp := tr.CopyIf(func(_, child uint32) bool { return true })
		fresh := treeOf(tr.Freeze())
		more := randomArenaTree(rng, 600, round%3)
		more.Walk(func(path []string, n uint32) {
			if more.IsLeaf(n) {
				for _, x := range []*Tree{tr, cp, fresh} {
					x.Insert(path, 0, more.Count(n))
				}
			}
		})
		want := fresh.Freeze().Bytes()
		if !bytes.Equal(tr.Freeze().Bytes(), want) {
			t.Fatalf("round %d: the pruned tree trained on differs from a fresh one", round)
		}
		if !bytes.Equal(cp.Freeze().Bytes(), want) {
			t.Fatalf("round %d: the pruned tree's copy trained on differs from a fresh one", round)
		}
	}
}
