package core

import (
	"sync"
	"testing"

	"pbppm/internal/popularity"
)

// TestConcurrentPredictSharedModel predicts from many goroutines on one
// trained live model, which records usage marks: marks are atomic, so
// this must pass under -race. Before this contract, concurrent Predict
// through a shared model raced on Node.used.
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
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Predict(contexts[(g+i)%len(contexts)])
			}
		}(g)
	}
	wg.Wait()
	if m.Utilization() == 0 {
		t.Error("usage marks lost under concurrent Predict")
	}
}
