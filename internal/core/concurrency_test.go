package core

import (
	"reflect"
	"sync"
	"testing"

	"pbppm/internal/markov"
	"pbppm/internal/popularity"
)

// TestConcurrentPredictSharedModel predicts from many goroutines on one
// trained live model, each call freezing it: freezing only reads the
// tree and the links, so this must pass under -race, and every call
// must predict what a sequential call does.
func TestConcurrentPredictSharedModel(t *testing.T) {
	grades := popularity.FixedGrades{"/home": 3, "/news": 2, "/news/today": 1}
	m := New(grades, Config{})
	for i := 0; i < 10; i++ {
		m.TrainSequence([]string{"/home", "/news", "/news/today"})
	}
	contexts := [][]string{
		{"/home"},
		{"/home", "/news"},
		{"/home", "/news", "/news/today"},
		{"/news"},
	}
	want := make([][]markov.Prediction, len(contexts))
	for i, ctx := range contexts {
		want[i] = m.Predict(ctx)
	}
	if len(want[0]) == 0 {
		t.Fatal("the trained model predicts nothing after /home")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := (g + i) % len(contexts)
				if got := m.Predict(contexts[k]); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("concurrent Predict(%v) = %+v, want %+v", contexts[k], got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
