// Package modeltest provides a reusable conformance suite for
// markov.Predictor implementations. Every prediction model in this
// repository — and any model a downstream user adds — must satisfy the
// same behavioral contract before the simulator and the HTTP server
// can drive it; Run checks that contract.
package modeltest

import (
	"math/rand"
	"reflect"
	"testing"

	"pbppm/internal/markov"
)

// Factory builds a fresh, empty model under test.
type Factory func() markov.Predictor

// Options tune the suite for models with unusual shapes.
type Options struct {
	// ContextFree marks models (like Top-N) whose predictions do not
	// depend on learned sequence structure; sequence-specific checks
	// are skipped for them.
	ContextFree bool
}

// Run executes the conformance suite against fresh models from the
// factory.
func Run(t *testing.T, name string, factory Factory, opt Options) {
	t.Helper()

	t.Run(name+"/empty-model", func(t *testing.T) {
		m := factory()
		if m.Name() == "" {
			t.Error("empty Name")
		}
		if got := m.NodeCount(); got != 0 {
			t.Errorf("fresh model NodeCount = %d", got)
		}
		if got := m.Predict([]string{"/never-seen"}); len(got) != 0 {
			t.Errorf("fresh model predicted %+v", got)
		}
		if got := m.Predict(nil); len(got) != 0 {
			t.Errorf("fresh model predicted on empty context: %+v", got)
		}
	})

	t.Run(name+"/probabilities-in-range", func(t *testing.T) {
		m := trained(factory)
		for _, ctx := range contexts() {
			for _, p := range m.Predict(ctx) {
				if p.Probability <= 0 || p.Probability > 1 {
					t.Fatalf("ctx %v: probability %v out of (0,1]", ctx, p.Probability)
				}
				if p.URL == "" {
					t.Fatalf("ctx %v: empty predicted URL", ctx)
				}
			}
		}
	})

	t.Run(name+"/no-duplicate-candidates", func(t *testing.T) {
		m := trained(factory)
		for _, ctx := range contexts() {
			seen := map[string]bool{}
			for _, p := range m.Predict(ctx) {
				if seen[p.URL] {
					t.Fatalf("ctx %v: %s predicted twice", ctx, p.URL)
				}
				seen[p.URL] = true
			}
		}
	})

	t.Run(name+"/vocabulary-closed", func(t *testing.T) {
		m := trained(factory)
		vocab := map[string]bool{}
		for _, s := range trainingSet() {
			for _, u := range s {
				vocab[u] = true
			}
		}
		for _, ctx := range contexts() {
			for _, p := range m.Predict(ctx) {
				if !vocab[p.URL] {
					t.Fatalf("ctx %v: predicted %s outside the training vocabulary", ctx, p.URL)
				}
			}
		}
	})

	t.Run(name+"/deterministic", func(t *testing.T) {
		a, b := trained(factory), trained(factory)
		if a.NodeCount() != b.NodeCount() {
			t.Fatalf("node counts differ: %d vs %d", a.NodeCount(), b.NodeCount())
		}
		for _, ctx := range contexts() {
			if !reflect.DeepEqual(a.Predict(ctx), b.Predict(ctx)) {
				t.Fatalf("ctx %v: identical training, different predictions", ctx)
			}
		}
	})

	t.Run(name+"/training-keeps-no-sequence", func(t *testing.T) {
		// TrainSequence may keep the URL strings but not the slice: the
		// maintainer trains every window session through one buffer.
		fresh, reused := trained(factory), factory()
		var buf []string
		for _, s := range trainingSet() {
			buf = append(buf[:0], s...)
			reused.TrainSequence(buf)
			for i := range buf {
				buf[i] = "/junk"
			}
		}
		if fresh.NodeCount() != reused.NodeCount() {
			t.Fatalf("node counts differ: %d trained on fresh slices, %d through one reused buffer",
				fresh.NodeCount(), reused.NodeCount())
		}
		for _, ctx := range contexts() {
			if !reflect.DeepEqual(fresh.Predict(ctx), reused.Predict(ctx)) {
				t.Fatalf("ctx %v: training through one reused buffer changed the predictions", ctx)
			}
		}
	})

	t.Run(name+"/predict-does-not-mutate", func(t *testing.T) {
		m := trained(factory)
		before := m.NodeCount()
		for i := 0; i < 50; i++ {
			for _, ctx := range contexts() {
				m.Predict(ctx)
			}
		}
		if got := m.NodeCount(); got != before {
			t.Fatalf("prediction changed NodeCount: %d -> %d", before, got)
		}
	})

	t.Run(name+"/training-grows-monotonically", func(t *testing.T) {
		m := factory()
		prev := 0
		for _, s := range trainingSet() {
			m.TrainSequence(s)
			if got := m.NodeCount(); got < prev {
				t.Fatalf("NodeCount shrank during training: %d -> %d", prev, got)
			} else {
				prev = got
			}
		}
	})

	if !opt.ContextFree {
		t.Run(name+"/learns-hot-path", func(t *testing.T) {
			m := trained(factory)
			ps := m.Predict([]string{"/hub", "/mid"})
			found := false
			for _, p := range ps {
				if p.URL == "/leaf" {
					found = true
				}
			}
			if !found {
				t.Fatalf("model did not learn the dominant continuation: %+v", ps)
			}
		})
	}

	t.Run(name+"/random-contexts-never-panic", func(t *testing.T) {
		m := trained(factory)
		rng := rand.New(rand.NewSource(99))
		urls := []string{"/hub", "/mid", "/leaf", "/alt", "/rare", "/bogus", ""}
		for i := 0; i < 500; i++ {
			n := rng.Intn(6)
			ctx := make([]string, n)
			for j := range ctx {
				ctx[j] = urls[rng.Intn(len(urls))]
			}
			m.Predict(ctx) // must not panic, whatever the context
		}
	})
}

// trainingSet is a deterministic session batch with one dominant path
// (hub -> mid -> leaf) plus variations.
func trainingSet() [][]string {
	var out [][]string
	for i := 0; i < 8; i++ {
		out = append(out, []string{"/hub", "/mid", "/leaf"})
	}
	out = append(out,
		[]string{"/hub", "/mid", "/alt"},
		[]string{"/hub", "/alt"},
		[]string{"/alt", "/rare"},
		[]string{"/rare"},
	)
	return out
}

func trained(factory Factory) markov.Predictor {
	m := factory()
	for _, s := range trainingSet() {
		m.TrainSequence(s)
	}
	return m
}

// contexts are the lookup shapes the suite probes.
func contexts() [][]string {
	return [][]string{
		{"/hub"},
		{"/hub", "/mid"},
		{"/mid"},
		{"/unseen", "/hub", "/mid"},
		{"/alt"},
		{"/rare"},
		{"/unseen"},
	}
}
