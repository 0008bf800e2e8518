package experiments

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/lrs"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
	"pbppm/internal/sim"
)

// TestSnapshotRoundTripOnReproduceTrace: every model the repository
// publishes — PB-PPM with its rule-3 links, 3-PPM, LRS and blended PPM
// — survives the snapshot image with and without the training window's
// ranking. The decoded model has the encoded one's serving parameters
// and arena image and predicts identically over every context of the
// held-out test day, the ranking keeps every count, and re-encoding
// the decoded snapshot gives the same bytes.
func TestSnapshotRoundTripOnReproduceTrace(t *testing.T) {
	const contextTail = 16 // the HTTP server's cap on a session's context
	w := testNASA(t)
	trainDays := w.Days() - 1
	train := w.DaySessions(0, trainDays)
	test := w.DaySessions(trainDays, trainDays+1)
	rank := Ranking(train)
	for _, m := range []markov.Predictor{
		core.New(rank, core.Config{RelProbCutoff: 0.01, DropSingletons: w.DropSingletons}),
		ppm.New(ppm.Config{Height: 3}),
		lrs.New(lrs.Config{}),
		ppm.New(ppm.Config{BlendOrders: true}),
	} {
		sim.Train(m, train)
		f := markov.Freeze(m).(*markov.FrozenTree)
		if _, pb := m.(*core.Model); pb && len(f.Params().Links) == 0 {
			t.Fatal("PB-PPM froze without rule-3 links; the round trip is not exercising them")
		}
		for _, r := range []*popularity.Ranking{rank, nil} {
			var img bytes.Buffer
			if err := maintain.EncodeSnapshot(&img, 1, f, r); err != nil {
				t.Fatal(err)
			}
			snap, err := maintain.DecodeSnapshot(img.Bytes())
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			got := snap.Model
			have, want := got.Params(), f.Params()
			if !maps.EqualFunc(have.Links, want.Links, slices.Equal[[]markov.Prediction]) {
				t.Errorf("%s: decoded links differ", m.Name())
			}
			have.Links, want.Links = nil, nil
			if !reflect.DeepEqual(have, want) {
				t.Errorf("%s: decoded parameters %+v, want %+v", m.Name(), have, want)
			}
			if !bytes.Equal(got.Arena().Bytes(), f.Arena().Bytes()) {
				t.Errorf("%s: round trip changed the arena image", m.Name())
			}
			for _, s := range test {
				urls := s.URLs()
				for i := 1; i <= len(urls); i++ {
					ctx := urls[max(0, i-contextTail):i]
					if p, q := got.Predict(ctx), f.Predict(ctx); !reflect.DeepEqual(p, q) {
						t.Fatalf("%s ctx %v: decoded predicts %+v, encoded %+v", m.Name(), ctx, p, q)
					}
				}
			}
			if (snap.Ranking == nil) != (r == nil) {
				t.Fatalf("%s: ranking %v decoded as %v", m.Name(), r, snap.Ranking)
			}
			if r != nil {
				if !slices.Equal(snap.Ranking.URLs(), r.URLs()) {
					t.Errorf("%s: decoded ranking lists other URLs", m.Name())
				}
				for _, u := range r.URLs() {
					if snap.Ranking.Count(u) != r.Count(u) {
						t.Errorf("%s: %s counted %d after round trip, want %d", m.Name(), u, snap.Ranking.Count(u), r.Count(u))
					}
				}
			}
			var again bytes.Buffer
			if err := maintain.EncodeSnapshot(&again, snap.Version, got, snap.Ranking); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), img.Bytes()) {
				t.Errorf("%s: re-encoding the decoded snapshot changed its bytes", m.Name())
			}
		}
	}
}
