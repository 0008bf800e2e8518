package markov

import (
	"bytes"
	"math/rand"
	"testing"
)

// fuzzSeedTrees returns a few representative trees whose frozen images
// seed the corpus: empty, tiny, height-capped, a random workload, one
// whose root count needs 4-byte counts, and one whose URL table
// restarts twice.
func fuzzSeedTrees() []*Tree {
	empty := NewTree()
	tiny := NewTree()
	tiny.Insert([]string{"/a", "/b"}, 0, 2)
	capped := NewTree()
	capped.Insert([]string{"/a", "/b", "/c", "/d"}, 3, 1)
	capped.Insert([]string{"/b", "/c"}, 3, 5)
	wide := NewTree()
	wide.Insert([]string{"/a", "/b"}, 0, 70_000)
	wide.Insert([]string{"/b", "/c"}, 0, 3)
	return []*Tree{empty, tiny, capped, randomArenaTree(rand.New(rand.NewSource(11)), 120, 0), wide, prefixTree()}
}

// FuzzArenaFromBytes drives the arena validator with mutated images:
// it must never panic, and any image it accepts must serve without
// crashing, predict only probabilities in [0, 1], survive a reattach
// byte-identically, and be the one image of its tree: the tree rebuilt
// from its paths and counts freezes to the same bytes.
func FuzzArenaFromBytes(f *testing.F) {
	for _, tr := range fuzzSeedTrees() {
		f.Add(tr.Freeze().Bytes())
	}
	f.Add([]byte(arenaMagic))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ArenaFromBytes(data)
		if err != nil {
			return
		}
		// Serve a few predictions over the accepted image: every URL the
		// arena knows must be walkable without a crash, and no count may
		// yield a probability outside [0, 1].
		var buf []Prediction
		for _, blend := range []bool{false, true} {
			ft := NewFrozenTree(a, FrozenParams{Blend: blend})
			for s := 1; s <= a.SymbolCount() && s <= 8; s++ {
				buf = ft.PredictInto([]string{a.URLOf(uint32(s))}, buf)
				for _, p := range buf {
					if !(p.Probability >= 0 && p.Probability <= 1) {
						t.Fatalf("accepted image predicts %q with probability %v (blend %v)", p.URL, p.Probability, blend)
					}
				}
			}
		}
		// Streaming over contexts of the arena's own URLs (and an unseen
		// one) must reach the node the reference scan finds over each
		// prefix's last 16 URLs.
		if syms := a.SymbolCount(); syms > 0 {
			rng := rand.New(rand.NewSource(int64(len(data))))
			for round := 0; round < 4; round++ {
				ctx := make([]string, rng.Intn(24)+1)
				for j := range ctx {
					if s := rng.Intn(syms + 1); s > 0 {
						ctx[j] = a.URLOf(uint32(s))
					} else {
						ctx[j] = "\x00unseen"
					}
				}
				checkStreaming(t, a, ctx, 16)
			}
		}
		b, err := ArenaFromBytes(a.Bytes())
		if err != nil {
			t.Fatalf("reattaching an accepted image failed: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("reattach changed the image")
		}
		if again := treeOf(a).Freeze().Bytes(); !bytes.Equal(again, data) {
			t.Fatalf("the image's tree freezes to another image:\n got % x\nwant % x", again, data)
		}
	})
}

// treeOf rebuilds the tree an arena holds: every path with its count.
func treeOf(a *Arena) *Tree {
	tr := NewTree()
	tr.Add(Root, a.Count(0))
	nodes := make([]uint32, a.NodeCount()+1)
	// BFS order: each node is built before its children are visited.
	for i := range nodes {
		a.EachChild(uint32(i), func(c uint32, url string) bool {
			nodes[c] = tr.EnsureChild(nodes[i], tr.Intern(url))
			tr.Add(nodes[c], a.Count(c))
			return true
		})
	}
	return tr
}
