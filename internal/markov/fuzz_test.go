package markov

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fuzzSeedTrees returns a few representative trees whose frozen images
// seed the corpus: empty, tiny, height-capped, a random workload, and
// one whose root count needs 4-byte counts.
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
	return []*Tree{empty, tiny, capped, randomArenaTree(rand.New(rand.NewSource(11)), 120, 0), wide}
}

// fuzzSeedModels returns frozen models whose images seed the decoder
// corpus: longest-match trees with each clamp height, a PB-PPM-shaped
// model with extra candidates and a node count above its arena's, and a
// blended one.
func fuzzSeedModels() []*FrozenTree {
	var out []*FrozenTree
	for i, tr := range fuzzSeedTrees() {
		out = append(out, NewFrozenTree(tr.Freeze(), FrozenParams{Name: "PPM", Threshold: 0.25, ClampHeight: i}))
	}
	tiny := fuzzSeedTrees()[1].Freeze()
	out = append(out,
		NewFrozenTree(tiny, FrozenParams{Name: "PB-PPM", Threshold: 0.25, NodeCount: 4, Links: map[string][]Prediction{
			"/a": {{URL: "/c", Probability: 0.5, Order: 1}},
			"/b": {{URL: "/a", Probability: 0.75, Order: 1}, {URL: "/d", Probability: 0.25, Order: 1}},
		}}),
		NewFrozenTree(fuzzSeedTrees()[3].Freeze(), FrozenParams{Name: "PPM", Threshold: 0.1, Blend: true}))
	return out
}

// FuzzDecodeTree hammers the frozen-model codec — the decoder every
// published snapshot revives through — with mutated payloads. The
// decoder must never panic (corrupt snapshots come off disks and
// sockets); anything it accepts must have a threshold candidates can
// pass, predict without crashing, and re-encode to a model with the
// same name, threshold, height clamp, node count, blend flag, extra
// candidates and arena image (the decoder cannot invent states the
// encoder would not produce).
func FuzzDecodeTree(f *testing.F) {
	for _, m := range fuzzSeedModels() {
		var w bytes.Buffer
		if err := m.EncodeFrozen(&w); err != nil {
			f.Fatal(err)
		}
		f.Add(w.Bytes())
		// A few deterministic mutations widen the corpus beyond what the
		// fuzzer mutates on its own.
		for _, cut := range []int{1, len(w.Bytes()) / 2} {
			if cut < len(w.Bytes()) {
				f.Add(w.Bytes()[:cut])
			}
		}
	}
	f.Add([]byte(arenaMagic))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, err := DecodeFrozen(bytes.NewReader(data))
		if err != nil {
			return
		}
		if math.IsNaN(ft.threshold) {
			t.Fatal("accepted a NaN threshold")
		}
		a := ft.Arena()
		for s := 1; s <= a.SymbolCount() && s <= 8; s++ {
			ft.Predict([]string{a.URLOf(uint32(s))})
			ft.Predict([]string{"\x00unseen", a.URLOf(uint32(s))})
		}
		for head := range ft.links {
			ft.Predict([]string{head})
		}
		var w bytes.Buffer
		if err := ft.EncodeFrozen(&w); err != nil {
			t.Fatalf("re-encoding an accepted tree failed: %v", err)
		}
		ft2, err := DecodeFrozen(bytes.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding an accepted tree failed: %v", err)
		}
		if ft2.name != ft.name || ft2.clampHeight != ft.clampHeight ||
			math.Float64bits(ft2.threshold) != math.Float64bits(ft.threshold) ||
			ft2.nodeCount != ft.nodeCount || ft2.blend != ft.blend {
			t.Fatalf("round trip changed the model: %q/%v/%d/%d/%v vs %q/%v/%d/%d/%v",
				ft2.name, ft2.threshold, ft2.clampHeight, ft2.nodeCount, ft2.blend,
				ft.name, ft.threshold, ft.clampHeight, ft.nodeCount, ft.blend)
		}
		if !reflect.DeepEqual(ft2.links, ft.links) {
			t.Fatalf("round trip changed the extra candidates: %+v vs %+v", ft2.links, ft.links)
		}
		// Arena images are canonical, so byte equality is the strongest
		// available identity check.
		if !bytes.Equal(a.Bytes(), ft2.Arena().Bytes()) {
			t.Fatal("accepted tree did not round-trip identically")
		}
	})
}

// FuzzArenaFromBytes drives the arena validator with mutated images:
// it must never panic, and any image it accepts must serve without
// crashing, predict only probabilities in [0, 1], and survive a
// reattach byte-identically.
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
	})
}
