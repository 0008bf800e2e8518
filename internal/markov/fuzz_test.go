package markov

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// fuzzSeedTrees returns a few representative trees whose frozen images
// seed the corpus: empty, tiny, height-capped, and a random workload.
func fuzzSeedTrees() []*Tree {
	empty := NewTree()
	tiny := NewTree()
	tiny.Insert([]string{"/a", "/b"}, 0, 2)
	capped := NewTree()
	capped.Insert([]string{"/a", "/b", "/c", "/d"}, 3, 1)
	capped.Insert([]string{"/b", "/c"}, 3, 5)
	return []*Tree{empty, tiny, capped, randomArenaTree(rand.New(rand.NewSource(11)), 120, 0)}
}

// FuzzDecodeTree hammers the frozen-tree codec — the decoder a
// published PPM or LRS snapshot revives through — with mutated
// payloads. The decoder must never panic (corrupt snapshots come off
// disks and sockets); anything it accepts must predict without
// crashing and re-encode to a model with the same name, threshold,
// height clamp and arena image (the decoder cannot invent states the
// encoder would not produce).
func FuzzDecodeTree(f *testing.F) {
	for i, tr := range fuzzSeedTrees() {
		var w bytes.Buffer
		if err := NewFrozenTree(tr.Freeze(), "PPM", 0.25, i).EncodeFrozen(&w); err != nil {
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
		p, err := DecodeFrozenModel(FrozenTreeKind, bytes.NewReader(data))
		if err != nil {
			return
		}
		ft := p.(*FrozenTree)
		a := ft.Arena()
		for s := 1; s <= a.SymbolCount() && s <= 8; s++ {
			ft.Predict([]string{a.URLOf(uint32(s))})
			ft.Predict([]string{"\x00unseen", a.URLOf(uint32(s))})
		}
		var w bytes.Buffer
		if err := ft.EncodeFrozen(&w); err != nil {
			t.Fatalf("re-encoding an accepted tree failed: %v", err)
		}
		p2, err := DecodeFrozenModel(FrozenTreeKind, bytes.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding an accepted tree failed: %v", err)
		}
		ft2 := p2.(*FrozenTree)
		if ft2.name != ft.name || ft2.clampHeight != ft.clampHeight ||
			math.Float64bits(ft2.threshold) != math.Float64bits(ft.threshold) {
			t.Fatalf("round trip changed the model: %q/%v/%d vs %q/%v/%d",
				ft2.name, ft2.threshold, ft2.clampHeight, ft.name, ft.threshold, ft.clampHeight)
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
// crashing and survive a reattach byte-identically.
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
		// arena knows must be walkable without a crash.
		var buf []Prediction
		for s := 1; s <= a.SymbolCount() && s <= 8; s++ {
			buf = a.PredictInto([]string{a.URLOf(uint32(s))}, 0, buf)
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
