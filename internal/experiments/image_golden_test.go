package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/lrs"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/ppm"
	"pbppm/internal/sim"
)

// TestModelImageGolden pins the SHA-256 of the arena image, and of the
// snapshot file with the training ranking, of every tree model
// prefetchsim -save-model writes (pb, ppm, 3ppm, blend and lrs, built
// as prefetchsim builds them), trained on all but the last day of the
// test NASA and UCB-CS workloads, against
// testdata/model_images.golden.txt. Images are canonical, so a change
// to how a tree is trained, pruned or frozen that moves any model shows
// here as a changed digest.
func TestModelImageGolden(t *testing.T) {
	var got bytes.Buffer
	for _, w := range []*Workload{testNASA(t), testUCB(t)} {
		trainDays := w.Days() - 1
		train := w.DaySessions(0, trainDays)
		rank := Ranking(train)
		for _, m := range []struct {
			name  string
			model markov.Predictor
		}{
			{"pb", core.New(rank, core.Config{RelProbCutoff: 0.01, DropSingletons: w.DropSingletons})},
			{"ppm", ppm.New(ppm.Config{})},
			{"3ppm", ppm.New(ppm.Config{Height: 3})},
			{"blend", ppm.New(ppm.Config{BlendOrders: true})},
			{"lrs", lrs.New(lrs.Config{})},
		} {
			sim.Train(m.model, train)
			f := markov.Freeze(m.model).(*markov.FrozenTree)
			var snap bytes.Buffer
			if err := maintain.EncodeSnapshot(&snap, 1, f, rank); err != nil {
				t.Fatalf("%s %s: %v", w.Name, m.name, err)
			}
			fmt.Fprintf(&got, "%s %s nodes=%d arena=%x snapshot=%x\n", w.Name, m.name, f.NodeCount(),
				sha256.Sum256(f.Arena().Bytes()), sha256.Sum256(snap.Bytes()))
		}
	}
	compareGolden(t, filepath.Join("testdata", "model_images.golden.txt"), got.Bytes())
}
