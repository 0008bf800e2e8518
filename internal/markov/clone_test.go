package markov

import (
	"testing"
)

// trainSuffixes inserts every suffix of each sequence, the standard-PPM
// training shape, to grow a tree with shared prefixes and deep paths.
func trainSuffixes(t *Tree, seqs [][]string) {
	for _, s := range seqs {
		for i := range s {
			t.Insert(s[i:], 0, 1)
		}
	}
}

func TestCloneIsDeepCopy(t *testing.T) {
	orig := NewTree()
	trainSuffixes(orig, [][]string{
		{"/a", "/b", "/c"},
		{"/a", "/b", "/d"},
		{"/x", "/y"},
	})
	before := orig.String()

	clone := orig.Clone()
	if got := clone.String(); got != before {
		t.Fatalf("clone differs from original:\n%s\nvs\n%s", got, before)
	}

	// Mutating the clone must not touch the original, including its
	// symbol table (the new URL interns only into the clone).
	clone.Insert([]string{"/a", "/b", "/new"}, 0, 3)
	if got := orig.String(); got != before {
		t.Errorf("training the clone mutated the original:\n%s\nvs\n%s", got, before)
	}
	if _, ok := orig.syms.lookup("/new"); ok {
		t.Error("interning into the clone leaked into the original's symbol table")
	}
	if n := clone.Match([]string{"/a", "/b", "/new"}); n == nil || n.Count != 3 {
		t.Errorf("clone did not absorb its own insert: %+v", n)
	}

	// And the other direction: mutating the original leaves the clone at
	// its snapshot.
	snap := clone.String()
	orig.Insert([]string{"/q"}, 0, 1)
	if got := clone.String(); got != snap {
		t.Errorf("training the original mutated the clone:\n%s\nvs\n%s", got, snap)
	}
}

func TestCloneDoesNotCopyUsageMarks(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 2)
	tr.MarkPath([]string{"/a", "/b"})
	if tr.Utilization() != 1 {
		t.Fatalf("setup: utilization = %v", tr.Utilization())
	}
	if u := tr.Clone().Utilization(); u != 0 {
		t.Errorf("clone carried usage marks: utilization = %v", u)
	}
}

func TestCloneCopiesPromotedChildren(t *testing.T) {
	// Grow a root fan-out past promoteFanout so the clone exercises the
	// map (big) representation too.
	tr := NewTree()
	for i := 0; i < promoteFanout+4; i++ {
		tr.Insert([]string{"/hub", "/leaf" + string(rune('a'+i))}, 0, 1)
	}
	clone := tr.Clone()
	if got, want := clone.String(), tr.String(); got != want {
		t.Fatalf("promoted clone differs:\n%s\nvs\n%s", got, want)
	}
	clone.Insert([]string{"/hub", "/extra"}, 0, 1)
	if hub := tr.Match([]string{"/hub"}); hub.Fanout() != promoteFanout+4 {
		t.Errorf("original hub fan-out changed to %d", hub.Fanout())
	}
}

// TestCloneMergeEquivalence is the incremental-maintenance contract at
// the tree level: training a delta into a fresh tree and folding it
// into a clone of the base (Merge) yields exactly the tree a
// from-scratch retrain on base+delta produces.
func TestCloneMergeEquivalence(t *testing.T) {
	base := [][]string{
		{"/home", "/news", "/news/today"},
		{"/home", "/sports"},
		{"/docs", "/docs/api", "/docs/api/tree"},
	}
	delta := [][]string{
		{"/home", "/news", "/weather"}, // extends an existing path
		{"/brand", "/new", "/branch"},  // all-new URLs
		{"/home", "/sports"},           // pure count bump
	}

	live := NewTree()
	trainSuffixes(live, base)

	deltaTree := NewTree()
	trainSuffixes(deltaTree, delta)

	clone := live.Clone()
	clone.Merge(deltaTree)

	retrain := NewTree()
	trainSuffixes(retrain, base)
	trainSuffixes(retrain, delta)

	if got, want := clone.String(), retrain.String(); got != want {
		t.Errorf("delta-merged clone != from-scratch retrain:\n%s\nvs\n%s", got, want)
	}
	cs, rs := clone.Stats(), retrain.Stats()
	if cs.Nodes != rs.Nodes || cs.Leaves != rs.Leaves || cs.Roots != rs.Roots ||
		cs.MaxDepth != rs.MaxDepth || cs.TotalCount != rs.TotalCount {
		t.Errorf("stats diverge: merged %+v, retrain %+v", cs, rs)
	}
	// The published base is untouched by the whole procedure.
	pristine := NewTree()
	trainSuffixes(pristine, base)
	if got, want := live.String(), pristine.String(); got != want {
		t.Errorf("delta merge mutated the published base:\n%s\nvs\n%s", got, want)
	}
}
