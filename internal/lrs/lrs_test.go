package lrs

import (
	"strings"
	"testing"

	"pbppm/internal/markov"
	"pbppm/internal/ppm"
)

func TestName(t *testing.T) {
	if got := New(Config{}).Name(); got != "LRS-PPM" {
		t.Errorf("Name = %q", got)
	}
}

func TestOnlyRepeatingSequencesKept(t *testing.T) {
	m := New(Config{})
	m.TrainSequence([]string{"a", "b", "c"})
	m.TrainSequence([]string{"a", "b", "d"})
	m.TrainSequence([]string{"x", "y"})

	// a,b repeats (twice); c, d, x, y appear once each.
	tr := m.Tree()
	if tr.Match([]string{"a", "b"}) == nil {
		t.Error("repeating path a>b missing")
	}
	if tr.Match([]string{"a", "b", "c"}) != nil {
		t.Error("singleton path a>b>c kept")
	}
	if tr.Match([]string{"x"}) != nil {
		t.Error("singleton root x kept")
	}
	// Suffix branch b (count 2) must also be present — the "cut and
	// paste" sub-branch duplication.
	if tr.Match([]string{"b"}) == nil {
		t.Error("suffix branch b missing")
	}
	// Nodes: a(2), a>b(2), b(2) = 3.
	if got := m.NodeCount(); got != 3 {
		t.Errorf("NodeCount = %d, want 3", got)
	}
}

func TestRepeatWithinOneSession(t *testing.T) {
	// A pattern occurring twice inside a single session repeats.
	m := New(Config{})
	m.TrainSequence([]string{"a", "b", "a", "b"})
	if m.Tree().Match([]string{"a", "b"}) == nil {
		t.Error("within-session repeat not detected")
	}
}

func TestLaterTrainingPromotesSequences(t *testing.T) {
	m := New(Config{})
	m.TrainSequence([]string{"p", "q"})
	if m.Tree().Match([]string{"p", "q"}) != nil {
		t.Fatal("single occurrence already in tree")
	}
	m.TrainSequence([]string{"p", "q"})
	if m.Tree().Match([]string{"p", "q"}) == nil {
		t.Error("second occurrence did not promote the sequence")
	}
}

func TestPredict(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 3; i++ {
		m.TrainSequence([]string{"a", "b", "c"})
	}
	m.TrainSequence([]string{"a", "b", "x"}) // singleton continuation
	ps := m.Predict([]string{"a", "b"})
	if len(ps) != 1 || ps[0].URL != "c" || ps[0].Order != 2 {
		t.Fatalf("Predict = %+v, want c at order 2", ps)
	}
	if ps[0].Probability != 0.75 {
		t.Errorf("P(c|ab) = %v, want 0.75", ps[0].Probability)
	}
}

func TestPredictNoMatch(t *testing.T) {
	m := New(Config{})
	m.TrainSequence([]string{"a", "b"})
	m.TrainSequence([]string{"a", "b"})
	if ps := m.Predict([]string{"zzz"}); ps != nil {
		t.Errorf("Predict(zzz) = %+v", ps)
	}
	// "b" alone repeats; context ending in b matches at order 1 but has
	// no children above threshold (no repeating continuation).
	if ps := m.Predict([]string{"b"}); len(ps) != 0 {
		t.Errorf("Predict(b) = %+v, want none", ps)
	}
}

func TestPatterns(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 2; i++ {
		m.TrainSequence([]string{"a", "b", "c"})
	}
	pats := m.Patterns()
	// Expected leaves: a>b>c (2), b>c (2), c is interior? No: c as a
	// root branch is a leaf with count 2. So patterns: abc, bc, c.
	if len(pats) != 3 {
		t.Fatalf("Patterns = %+v, want 3", pats)
	}
	var joined []string
	for _, p := range pats {
		joined = append(joined, strings.Join(p.URLs, ">"))
		if p.Count != 2 {
			t.Errorf("pattern %v count = %d, want 2", p.URLs, p.Count)
		}
	}
	want := map[string]bool{"a>b>c": true, "b>c": true, "c": true}
	for _, j := range joined {
		if !want[j] {
			t.Errorf("unexpected pattern %q", j)
		}
	}
}

func TestNodeCountSmallerThanStandard(t *testing.T) {
	// With mostly unique traffic, LRS stores far fewer nodes than the
	// full suffix trie.
	m := New(Config{})
	full := 0
	for i := 0; i < 50; i++ {
		s := []string{"home", urlN(i), urlN(i + 100)}
		m.TrainSequence(s)
		full += 3 + 2 + 1
	}
	for i := 0; i < 10; i++ {
		m.TrainSequence([]string{"home", "news", "sports"})
	}
	if got := m.NodeCount(); got >= full/4 {
		t.Errorf("LRS NodeCount = %d, not much smaller than the %d-node suffix trie", got, full)
	}
	if m.Tree().Match([]string{"home", "news", "sports"}) == nil {
		t.Error("hot path missing")
	}
}

func urlN(i int) string {
	return "/page" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestUtilization(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 2; i++ {
		m.TrainSequence([]string{"a", "b"})
		m.TrainSequence([]string{"x", "y"})
	}
	if got := m.Utilization(); got != 0 {
		t.Errorf("fresh utilization = %v", got)
	}
	m.Predict([]string{"a"})
	if got := m.Utilization(); got <= 0 || got >= 1 {
		t.Errorf("utilization = %v, want in (0,1)", got)
	}
	m.ResetUsage()
	if m.Utilization() != 0 {
		t.Error("ResetUsage failed")
	}
}

func TestUsageMarksSurviveRetrainRebuild(t *testing.T) {
	// Usage marks live on the pruned tree, which is rebuilt after
	// training; utilization resets then — acceptable because the
	// simulator trains fully before measuring. This test documents the
	// behavior.
	m := New(Config{})
	m.TrainSequence([]string{"a", "b"})
	m.TrainSequence([]string{"a", "b"})
	m.Predict([]string{"a"})
	if m.Utilization() == 0 {
		t.Fatal("prediction did not mark usage")
	}
	m.TrainSequence([]string{"c", "d"})
	if got := m.Utilization(); got != 0 {
		t.Errorf("utilization after retrain = %v, want 0 (rebuilt)", got)
	}
}

func TestPredictorInterface(t *testing.T) {
	var p markov.Predictor = New(Config{})
	markov.TrainAll(p, [][]string{{"a", "b"}, {"a", "b"}, {"a", "b"}})
	ps := p.Predict([]string{"a"})
	if len(ps) != 1 || ps[0].URL != "b" {
		t.Errorf("interface Predict = %+v", ps)
	}
}

func TestNoThresholdPredictsEverything(t *testing.T) {
	m := New(Config{Threshold: ppm.NoThreshold})
	for i := 0; i < 9; i++ {
		m.TrainSequence([]string{"a", "b"})
	}
	for i := 0; i < 2; i++ {
		m.TrainSequence([]string{"a", "c"}) // P(c|a)=2/11, below the default 0.25
	}
	ps := m.Predict([]string{"a"})
	if len(ps) != 2 {
		t.Errorf("Predict with NoThreshold = %+v, want both b and c", ps)
	}
}

// TestShardedTrainingEquivalence drives NewShard/MergeShard directly
// and checks the merged suffix trie yields the same repeating-only
// model as serial training.
func TestShardedTrainingEquivalence(t *testing.T) {
	var seqs [][]string
	urls := []string{"a", "b", "c", "d"}
	for i := 0; i < 80; i++ {
		s := make([]string, i%3+2)
		for j := range s {
			s[j] = urls[(i*5+j)%len(urls)]
		}
		seqs = append(seqs, s)
	}
	serial := New(Config{})
	markov.TrainAll(serial, seqs)

	sharded := New(Config{})
	shards := []markov.Predictor{sharded.NewShard(), sharded.NewShard(), sharded.NewShard()}
	for i, s := range seqs {
		shards[i%len(shards)].TrainSequence(s)
	}
	for _, sh := range shards {
		sharded.MergeShard(sh)
	}

	if got, want := sharded.NodeCount(), serial.NodeCount(); got != want {
		t.Fatalf("NodeCount = %d, serial %d", got, want)
	}
	gotPat, wantPat := sharded.Patterns(), serial.Patterns()
	if len(gotPat) != len(wantPat) {
		t.Fatalf("Patterns: %d vs serial %d", len(gotPat), len(wantPat))
	}
	for i := range gotPat {
		if gotPat[i].Count != wantPat[i].Count ||
			strings.Join(gotPat[i].URLs, ">") != strings.Join(wantPat[i].URLs, ">") {
			t.Fatalf("pattern %d: %+v vs serial %+v", i, gotPat[i], wantPat[i])
		}
	}
}
