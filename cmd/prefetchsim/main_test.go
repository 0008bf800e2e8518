package main

import (
	"os"
	"path/filepath"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/lrs"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
	"pbppm/internal/topn"
)

// TestPersistModelWritesSnapshotImages: -save-model writes, for every
// model with a frozen form, a snapshot image that DecodeSnapshot
// revives with the trained model's node count and the training
// ranking; a model without one is an error.
func TestPersistModelWritesSnapshotImages(t *testing.T) {
	train := [][]string{
		{"/home", "/news", "/news/today"},
		{"/home", "/news", "/weather"},
		{"/home", "/sports"},
		{"/docs", "/docs/api"},
	}
	rank := popularity.NewRanking()
	for _, s := range train {
		for _, u := range s {
			rank.Observe(u, 1)
		}
	}
	dir := t.TempDir()
	for name, m := range map[string]markov.Predictor{
		"pb":    core.New(rank, core.Config{}),
		"ppm":   ppm.New(ppm.Config{}),
		"3ppm":  ppm.New(ppm.Config{Height: 3}),
		"blend": ppm.New(ppm.Config{BlendOrders: true}),
		"lrs":   lrs.New(lrs.Config{}),
	} {
		for i := 0; i < 3; i++ {
			for _, s := range train {
				m.TrainSequence(s)
			}
		}
		path := filepath.Join(dir, name+".snap")
		if err := persistModel(path, m, rank); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := maintain.DecodeSnapshot(img)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if snap.Model.Name() != m.Name() || snap.Model.NodeCount() != m.NodeCount() {
			t.Errorf("%s: revived %q with %d nodes, want %q with %d",
				name, snap.Model.Name(), snap.Model.NodeCount(), m.Name(), m.NodeCount())
		}
		if snap.Ranking == nil || snap.Ranking.Len() != rank.Len() || snap.Ranking.Count("/home") != rank.Count("/home") {
			t.Errorf("%s: revived ranking %+v does not match the training ranking", name, snap.Ranking)
		}
	}

	top := topn.New()
	top.TrainSequence([]string{"/home"})
	if err := persistModel(filepath.Join(dir, "topn.snap"), top, rank); err == nil {
		t.Error("persisting Top-N, which has no snapshot image, succeeded")
	}
}
