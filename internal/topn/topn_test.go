package topn

import (
	"fmt"
	"testing"

	"pbppm/internal/markov"
)

func train(m *Model) {
	// /hot 30x, /warm 20x, /mild 10x, tail 1x each.
	for i := 0; i < 30; i++ {
		m.TrainSequence([]string{"/hot"})
	}
	for i := 0; i < 20; i++ {
		m.TrainSequence([]string{"/warm"})
	}
	for i := 0; i < 10; i++ {
		m.TrainSequence([]string{"/mild"})
	}
	m.TrainSequence([]string{"/tail1", "/tail2"})
}

// trainMany trains the five documents of train and nine more, /d0 (9
// accesses) down to /d8 (1), so more documents than the model's ten
// compete.
func trainMany(m *Model) {
	train(m)
	for i := 0; i < 9; i++ {
		for j := 0; j < 9-i; j++ {
			m.TrainSequence([]string{fmt.Sprintf("/d%d", i)})
		}
	}
}

func TestName(t *testing.T) {
	if got := New().Name(); got != "Top-10" {
		t.Errorf("Name = %q", got)
	}
}

func TestPredictReturnsTopN(t *testing.T) {
	m := New()
	trainMany(m)
	ps := m.Predict([]string{"/somewhere"})
	want := []string{"/hot", "/warm", "/mild", "/d0", "/d1", "/d2", "/d3", "/d4", "/d5", "/d6"}
	if len(ps) != len(want) {
		t.Fatalf("Predict = %+v, want %v", ps, want)
	}
	for i, u := range want {
		if ps[i].URL != u {
			t.Fatalf("Predict = %+v, want %v", ps, want)
		}
	}
	if ps[0].Probability != 1.0 {
		t.Errorf("P(/hot) = %v, want RP 1.0", ps[0].Probability)
	}
	if ps[1].Probability < 0.66 || ps[1].Probability > 0.67 {
		t.Errorf("P(/warm) = %v, want RP 2/3", ps[1].Probability)
	}
}

func TestPredictExcludesCurrentDocument(t *testing.T) {
	m := New()
	trainMany(m)
	ps := m.Predict([]string{"/hot"})
	if len(ps) != 10 {
		t.Fatalf("Predict = %+v", ps)
	}
	for _, p := range ps {
		if p.URL == "/hot" {
			t.Error("current document predicted")
		}
	}
	if ps[0].URL != "/warm" || ps[1].URL != "/mild" {
		t.Errorf("Predict = %+v", ps)
	}
}

func TestDefaultN(t *testing.T) {
	m := New()
	train(m)
	if got := len(m.Predict(nil)); got != 5 {
		// Only 5 distinct URLs exist; all are candidates.
		t.Errorf("predictions = %d, want 5", got)
	}
}

func TestNodeCount(t *testing.T) {
	m := New()
	train(m)
	if got := m.NodeCount(); got != 5 {
		t.Errorf("NodeCount = %d, want 5 distinct documents", got)
	}
}

func TestEmptyModel(t *testing.T) {
	m := New()
	if got := m.Predict([]string{"/x"}); len(got) != 0 {
		t.Errorf("empty model predicted %+v", got)
	}
	if m.NodeCount() != 0 {
		t.Error("empty model has nodes")
	}
}

func TestPredictorInterface(t *testing.T) {
	var p markov.Predictor = New()
	p.TrainSequence([]string{"/a", "/b"})
	if p.Name() != "Top-10" || p.NodeCount() != 2 {
		t.Error("interface conformance broken")
	}
}
