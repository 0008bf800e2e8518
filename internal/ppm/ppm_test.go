package ppm

import (
	"testing"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/session"
	"pbppm/internal/sim"
)

func TestName(t *testing.T) {
	if got := New(Config{Height: 3}).Name(); got != "3-PPM" {
		t.Errorf("Name = %q", got)
	}
	if got := New(Config{}).Name(); got != "PPM" {
		t.Errorf("Name = %q", got)
	}
}

func TestTrainInsertsAllSuffixes(t *testing.T) {
	m := New(Config{})
	m.TrainSequence([]string{"a", "b", "c"})
	// Suffixes: abc, bc, c -> prefix set {a, ab, abc, b, bc, c} = 6 nodes.
	if got := m.NodeCount(); got != 6 {
		t.Errorf("NodeCount = %d, want 6", got)
	}
	for _, path := range [][]string{{"a", "b", "c"}, {"b", "c"}, {"c"}} {
		if m.Tree().Match(path) == nil {
			t.Errorf("path %v missing", path)
		}
	}
}

func TestFixedHeightCapsBranches(t *testing.T) {
	m := New(Config{Height: 2})
	m.TrainSequence([]string{"a", "b", "c", "d"})
	if m.Tree().Match([]string{"a", "b", "c"}) != nil {
		t.Error("height-2 tree contains a depth-3 path")
	}
	// Suffix branches capped at 2: {a,ab,b,bc,c,cd,d} = 7 nodes.
	if got := m.NodeCount(); got != 7 {
		t.Errorf("NodeCount = %d, want 7", got)
	}
}

func TestPredictLongestMatch(t *testing.T) {
	m := New(Config{})
	// After "a b", "c" follows twice; after just "b", "x" also occurs.
	m.TrainSequence([]string{"a", "b", "c"})
	m.TrainSequence([]string{"a", "b", "c"})
	m.TrainSequence([]string{"z", "b", "x"})

	ps := m.Predict([]string{"a", "b"})
	if len(ps) != 1 || ps[0].URL != "c" || ps[0].Order != 2 {
		t.Fatalf("Predict(a,b) = %+v, want c at order 2", ps)
	}
	// Context (y,b) cannot match at order 2; falls back to order 1
	// where b is followed by c twice and x once.
	ps = m.Predict([]string{"y", "b"})
	if len(ps) != 2 || ps[0].URL != "c" || ps[0].Order != 1 {
		t.Fatalf("Predict(y,b) = %+v", ps)
	}
	if got := ps[0].Probability; got < 0.66 || got > 0.67 {
		t.Errorf("P(c|b) = %v, want 2/3", got)
	}
}

func TestPredictThreshold(t *testing.T) {
	m := New(Config{Threshold: 0.5})
	m.TrainSequence([]string{"a", "b"})
	m.TrainSequence([]string{"a", "b"})
	m.TrainSequence([]string{"a", "c"})
	m.TrainSequence([]string{"a", "d"})
	ps := m.Predict([]string{"a"})
	if len(ps) != 1 || ps[0].URL != "b" {
		t.Errorf("Predict = %+v, want only b (P=0.5)", ps)
	}
}

func TestPredictDefaultThreshold(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 3; i++ {
		m.TrainSequence([]string{"a", "b"})
	}
	m.TrainSequence([]string{"a", "c"}) // P(c|a)=0.25, at threshold
	ps := m.Predict([]string{"a"})
	if len(ps) != 2 {
		t.Errorf("Predict = %+v, want b and c (0.25 passes >=)", ps)
	}
}

func TestPredictNoMatch(t *testing.T) {
	m := New(Config{})
	m.TrainSequence([]string{"a", "b"})
	if ps := m.Predict([]string{"unknown"}); ps != nil {
		t.Errorf("Predict(unknown) = %+v, want nil", ps)
	}
	if ps := m.Predict(nil); ps != nil {
		t.Errorf("Predict(nil) = %+v, want nil", ps)
	}
}

func TestPredictLongContextWithFixedHeight(t *testing.T) {
	m := New(Config{Height: 3})
	m.TrainSequence([]string{"a", "b", "c", "d", "e"})
	// Context longer than height-1 must still match via its suffix.
	ps := m.Predict([]string{"a", "b", "c", "d"})
	if len(ps) != 1 || ps[0].URL != "e" {
		t.Fatalf("Predict = %+v, want e", ps)
	}
	if ps[0].Order != 2 {
		t.Errorf("order = %d, want 2 (context clipped to height-1)", ps[0].Order)
	}
}

// utilization replays one session of clicks through the simulator,
// every click reaching the server, and returns the path-utilization
// rate (Figure 2, right) its predictions reached.
func utilization(m markov.Predictor, clicks ...string) float64 {
	s := session.Session{Client: "c"}
	for i, u := range clicks {
		s.Views = append(s.Views, session.PageView{URL: u, Time: time.Unix(int64(i), 0)})
	}
	return sim.Run([]session.Session{s}, sim.Options{Predictor: m, PredictOnHitToo: true}).Utilization
}

func TestUtilization(t *testing.T) {
	m := New(Config{})
	m.TrainSequence([]string{"a", "b"})
	m.TrainSequence([]string{"x", "y"})
	if got := utilization(m, "/unseen"); got != 0 {
		t.Errorf("fresh utilization = %v", got)
	}
	got := utilization(m, "a")
	// Leaves: a>b, b, x>y, y. Prediction marked a>b (predicted child b is
	// that branch's leaf) and the standalone b leaf stays untouched...
	// b-as-root is a leaf node trained from the suffix; it is not marked.
	if got <= 0 || got >= 1 {
		t.Errorf("utilization = %v, want in (0,1)", got)
	}
	// Each replay counts its own predictions only.
	if utilization(m, "/unseen") != 0 {
		t.Error("a replay inherited another replay's marks")
	}
}

func TestPredictorInterface(t *testing.T) {
	var p markov.Predictor = New(Config{Height: 3})
	markov.TrainAll(p, [][]string{{"a", "b"}, {"a", "b"}})
	if got := p.Predict([]string{"a"}); len(got) != 1 || got[0].URL != "b" {
		t.Errorf("interface Predict = %+v", got)
	}
	if p.NodeCount() != 3 {
		t.Errorf("NodeCount = %d, want 3", p.NodeCount())
	}
}

func TestBlendedOrdersPredict(t *testing.T) {
	m := New(Config{BlendOrders: true, Threshold: 0.2})
	// Order-2 context (a,b) strongly suggests c; order-1 context b also
	// sees x from elsewhere.
	for i := 0; i < 6; i++ {
		m.TrainSequence([]string{"a", "b", "c"})
	}
	for i := 0; i < 4; i++ {
		m.TrainSequence([]string{"z", "b", "x"})
	}
	ps := m.Predict([]string{"a", "b"})
	if len(ps) == 0 {
		t.Fatal("no blended predictions")
	}
	if ps[0].URL != "c" {
		t.Errorf("top prediction = %+v, want c", ps[0])
	}
	// The blend surfaces x too (order-1 evidence), which the pure
	// longest-match method would suppress.
	found := false
	for _, p := range ps {
		if p.URL == "x" {
			found = true
			if p.Order != 1 {
				t.Errorf("x predicted at order %d", p.Order)
			}
		}
	}
	if !found {
		t.Errorf("order-1 candidate x missing from blend: %+v", ps)
	}
	// The longest-match model on the same data predicts only c.
	lm := New(Config{Threshold: 0.2})
	for i := 0; i < 6; i++ {
		lm.TrainSequence([]string{"a", "b", "c"})
	}
	for i := 0; i < 4; i++ {
		lm.TrainSequence([]string{"z", "b", "x"})
	}
	if got := lm.Predict([]string{"a", "b"}); len(got) != 1 || got[0].URL != "c" {
		t.Errorf("longest match = %+v", got)
	}
}

func TestBlendedConfidenceDampsSingletons(t *testing.T) {
	m := New(Config{BlendOrders: true, Threshold: 0.6})
	// A singleton deep context predicts its continuation with raw
	// probability 1.0, but confidence 1-1/2 = 0.5 keeps it under a 0.6
	// threshold.
	m.TrainSequence([]string{"q", "r", "s"})
	if got := m.Predict([]string{"q", "r"}); len(got) != 0 {
		t.Errorf("singleton deep context predicted: %+v", got)
	}
	// With more evidence the same context clears the bar.
	for i := 0; i < 9; i++ {
		m.TrainSequence([]string{"q", "r", "s"})
	}
	if got := m.Predict([]string{"q", "r"}); len(got) == 0 || got[0].URL != "s" {
		t.Errorf("evidence did not lift confidence: %+v", got)
	}
}

func TestBlendedNoMatch(t *testing.T) {
	m := New(Config{BlendOrders: true})
	m.TrainSequence([]string{"a", "b"})
	if got := m.Predict([]string{"zzz"}); got != nil {
		t.Errorf("Predict = %+v", got)
	}
}

func TestThresholdOrDefault(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, DefaultThreshold}, // zero Config keeps the paper's setup
		{NoThreshold, 0},      // sentinel: genuinely no threshold
		{-3.5, 0},             // any negative means no threshold
		{0.4, 0.4},
		{1, 1},
	}
	for _, c := range cases {
		if got := ThresholdOrDefault(c.in); got != c.want {
			t.Errorf("ThresholdOrDefault(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNoThresholdPredictsEverything(t *testing.T) {
	m := New(Config{Threshold: NoThreshold})
	for i := 0; i < 9; i++ {
		m.TrainSequence([]string{"a", "b"})
	}
	m.TrainSequence([]string{"a", "c"}) // P(c|a)=0.1, below the default 0.25
	ps := m.Predict([]string{"a"})
	if len(ps) != 2 {
		t.Errorf("Predict with NoThreshold = %+v, want both b and c", ps)
	}
}

// TestBlendedUtilizationMatchesLongestMatch is the regression test for
// the utilization-inflation bug: blended prediction used to mark every
// child of every matched context as used, before the blend threshold
// had filtered them. On this fixed tree the below-threshold candidate
// a>x must stay unmarked, so blended and longest-match prediction —
// which predict exactly the same single URL — must report the same
// path utilization. The old marking made blended report double.
func TestBlendedUtilizationMatchesLongestMatch(t *testing.T) {
	train := func(m *Model) {
		for i := 0; i < 7; i++ {
			m.TrainSequence([]string{"a", "b"})
		}
		m.TrainSequence([]string{"a", "x"}) // P(x|a)=1/8, below 0.25
	}
	longest := New(Config{})
	train(longest)
	blended := New(Config{BlendOrders: true})
	train(blended)

	if ps := longest.Predict([]string{"a"}); len(ps) != 1 || ps[0].URL != "b" {
		t.Fatalf("longest-match Predict = %+v, want only b", ps)
	}
	if ps := blended.Predict([]string{"a"}); len(ps) != 1 || ps[0].URL != "b" {
		t.Fatalf("blended Predict = %+v, want only b", ps)
	}
	got, want := utilization(blended, "a"), utilization(longest, "a")
	if want <= 0 {
		t.Fatalf("longest-match utilization = %v, want > 0", want)
	}
	if got != want {
		t.Errorf("blended Utilization = %v, longest-match = %v: filtered-out candidates were marked as used", got, want)
	}
}
