package lrs

import (
	"strings"
	"testing"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/ppm"
	"pbppm/internal/session"
	"pbppm/internal/sim"
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
	if tr.Match([]string{"a", "b"}) == markov.Root {
		t.Error("repeating path a>b missing")
	}
	if tr.Match([]string{"a", "b", "c"}) != markov.Root {
		t.Error("singleton path a>b>c kept")
	}
	if tr.Match([]string{"x"}) != markov.Root {
		t.Error("singleton root x kept")
	}
	// Suffix branch b (count 2) must also be present — the "cut and
	// paste" sub-branch duplication.
	if tr.Match([]string{"b"}) == markov.Root {
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
	if m.Tree().Match([]string{"a", "b"}) == markov.Root {
		t.Error("within-session repeat not detected")
	}
}

func TestLaterTrainingPromotesSequences(t *testing.T) {
	m := New(Config{})
	m.TrainSequence([]string{"p", "q"})
	if m.Tree().Match([]string{"p", "q"}) != markov.Root {
		t.Fatal("single occurrence already in tree")
	}
	m.TrainSequence([]string{"p", "q"})
	if m.Tree().Match([]string{"p", "q"}) == markov.Root {
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
	if m.Tree().Match([]string{"home", "news", "sports"}) == markov.Root {
		t.Error("hot path missing")
	}
}

func urlN(i int) string {
	return "/page" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
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
	for i := 0; i < 2; i++ {
		m.TrainSequence([]string{"a", "b"})
		m.TrainSequence([]string{"x", "y"})
	}
	if got := utilization(m, "/unseen"); got != 0 {
		t.Errorf("fresh utilization = %v", got)
	}
	if got := utilization(m, "a"); got <= 0 || got >= 1 {
		t.Errorf("utilization = %v, want in (0,1)", got)
	}
	// Each replay counts its own predictions only.
	if utilization(m, "/unseen") != 0 {
		t.Error("a replay inherited another replay's marks")
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
