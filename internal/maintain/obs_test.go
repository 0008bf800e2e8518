package maintain

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/obs"
)

// TestRebuildPublishesMetrics checks that a rebuild exports its
// duration, the window size, and the model-health gauges — the live
// counterpart of the paper's Figure 4 storage numbers — and that each
// size gauge counts the bytes its help text names.
func TestRebuildPublishesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	m, err := New(Config{
		Factory: pbFactory,
		Obs:     reg,
		Logger:  obs.NewLogger(&logBuf, slog.LevelInfo),
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(m, PublisherConfig{Obs: reg})
	m.Observe(mkSession(0, "/a", "/b", "/c"))
	m.Observe(mkSession(1, "/a", "/b"))
	m.Rebuild(epoch.Add(2 * time.Hour))

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	for _, want := range []string{
		"pbppm_rebuilds_total 1",
		"pbppm_window_sessions 2",
		"pbppm_rebuild_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// Model-health gauges must be non-zero for a trained PB-PPM model.
	for _, gauge := range []struct {
		name string
		g    *obs.Gauge
	}{
		{"pbppm_model_nodes", m.metrics.modelNodes},
		{"pbppm_model_branches", m.metrics.modelBranches},
		{"pbppm_model_leaves", m.metrics.modelLeaves},
		{"pbppm_model_max_height", m.metrics.modelMaxHeight},
		{"pbppm_model_bytes", m.metrics.modelBytes},
	} {
		if gauge.g.Value() <= 0 {
			t.Errorf("%s = %d, want > 0", gauge.name, gauge.g.Value())
		}
		if !strings.Contains(text, gauge.name) {
			t.Errorf("exposition missing %s", gauge.name)
		}
	}
	// Each size gauge reads its own source: the model in memory, its
	// arena image, and the snapshot image the publisher serves.
	arena := m.Predictor().(markov.ArenaHolder).Arena()
	rec := httptest.NewRecorder()
	pub.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"pbppm_model_bytes", m.metrics.modelBytes.Value(), arena.Stats().Bytes},
		{"pbppm_model_arena_bytes", m.metrics.modelArenaBytes.Value(), int64(arena.SizeBytes())},
		{"pbppm_snapshot_bytes", pub.metrics.bytes.Value(), int64(rec.Body.Len())},
	} {
		if c.got != c.want || c.want <= 0 {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	// The rebuild logged one component-tagged structured line.
	logged := logBuf.String()
	if !strings.Contains(logged, "model rebuilt") || !strings.Contains(logged, "component=maintain") {
		t.Errorf("rebuild log = %q", logged)
	}
}

// TestIncrementalMetricsExposition checks the delta-merge counters,
// the staged-session gauge, and the reason-labeled skip counters in
// the Prometheus exposition.
func TestIncrementalMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	m, err := New(Config{
		Factory: pbFactory,
		Obs:     reg,
		Logger:  obs.NewLogger(&logBuf, slog.LevelWarn),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(mkSession(0, "/a", "/b", "/c"))
	m.Rebuild(epoch.Add(2 * time.Hour))

	// Two sessions through the delta path.
	m.Observe(mkSession(3, "/a", "/d"))
	m.Observe(mkSession(4, "/a", "/e"))
	if m.metrics.stagedSessions.Value() != 2 {
		t.Errorf("staged gauge = %d, want 2", m.metrics.stagedSessions.Value())
	}
	m.DeltaMerge(epoch.Add(5 * time.Hour))

	// One skipped compaction (empty window) for the labeled counter.
	m.Rebuild(epoch.Add(10000 * time.Hour))

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	for _, want := range []string{
		"pbppm_delta_merges_total 1",
		"pbppm_delta_sessions_total 2",
		"pbppm_delta_merge_seconds_count 1",
		"pbppm_staged_sessions 0",
		`pbppm_rebuild_skipped_total{reason="empty_window"} 1`,
		`pbppm_rebuild_skipped_total{reason="empty_model"} 0`,
		`pbppm_rebuild_skipped_total{reason="panic"} 0`,
		"pbppm_staged_dropped_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "model update skipped") || !strings.Contains(logged, "empty_window") {
		t.Errorf("skip log = %q", logged)
	}
}

// TestRebuildWithoutObsStaysSilent pins the nil-config contract: no
// registry, no logger, no panic.
func TestRebuildWithoutObsStaysSilent(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(mkSession(0, "/a", "/b"))
	if got := m.Rebuild(epoch.Add(time.Hour)); got == nil {
		t.Fatal("Rebuild returned nil model")
	}
	if m.metrics.rebuilds.Value() != 1 {
		t.Error("internal rebuild counter not kept without a registry")
	}
}

// TestStagedGaugeMatchesStagedSize: Observe calls and delta merges
// racing each other all write pbppm_staged_sessions. Once they stop,
// the gauge must read what StagedSize reports; a writer that sets it
// after releasing the staging lock can land out of order and leave it
// stale.
func TestStagedGaugeMatchesStagedSize(t *testing.T) {
	for round := 0; round < 1000; round++ {
		m, err := New(Config{Factory: pbFactory})
		if err != nil {
			t.Fatal(err)
		}
		m.Observe(mkSession(0, "/a", "/b"))
		m.Rebuild(epoch.Add(time.Hour))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := mkSession(1, "/a", "/c")
				for i := 0; i < 20; i++ {
					m.Observe(s)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				m.DeltaMerge(epoch.Add(2 * time.Hour))
			}
		}()
		wg.Wait()
		if got, want := m.metrics.stagedSessions.Value(), m.StagedSize(); got != int64(want) {
			t.Fatalf("round %d: pbppm_staged_sessions = %d, StagedSize = %d", round, got, want)
		}
	}
}
