package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pbppm/internal/obs"
)

// syncBuffer is an io.Writer safe for the concurrent slog handlers the
// app's goroutines share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func testConfig() appConfig {
	return appConfig{
		addr:        "127.0.0.1:0",
		adminAddr:   "127.0.0.1:0",
		profileName: "nasa",
		deltaEvery:  50 * time.Millisecond,
		compactNear: time.Minute,
		traceSample: 1,
		slo:         defaultSLO + ";kind=precision,target=0.01;kind=hit_ratio,target=0.01",
		liveWindow:  time.Minute,
		warmDays:    1,
	}
}

// TestGracefulShutdownUnderScrapes boots the full daemon on ephemeral
// ports, hammers it with demand traffic and admin scrapes, then
// cancels the run context while requests are still in flight: run must
// drain both listeners, return cleanly, and flush the final quality
// and SLO snapshots to the log. Run with -race, it also exercises the
// serving/scrape/maintenance concurrency.
func TestGracefulShutdownUnderScrapes(t *testing.T) {
	logBuf := &syncBuffer{}
	a, err := newApp(testConfig(), obs.NewLogger(logBuf, slog.LevelInfo))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.listen(); err != nil {
		t.Fatal(err)
	}
	webURL := "http://" + a.webLn.Addr().String()
	adminURL := "http://" + a.adminLn.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()

	get := func(url string) (string, error) {
		resp, err := http.Get(url)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}

	// Wait for the admin listener to serve.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if body, err := get(adminURL + "/healthz"); err == nil && strings.Contains(body, "ok") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admin listener never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Concurrent load: demand traffic on the serving port, scrapes and
	// SLO evaluations on the admin port, until told to stop.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 2 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req, _ := http.NewRequest(http.MethodGet,
					fmt.Sprintf("%s/d0/page%04d.html", webURL, i%8), nil)
				req.Header.Set("X-Client-ID", fmt.Sprintf("c%d", g))
				if resp, err := client.Do(req); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	for _, path := range []string{"/metrics", "/debug/slo", "/debug/stats", "/debug/traces"} {
		path := path
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				get(adminURL + path)
			}
		}()
	}

	// Let traffic flow, then check the live surfaces while loaded.
	time.Sleep(300 * time.Millisecond)
	metrics, err := get(adminURL + "/metrics")
	if err != nil {
		t.Fatalf("scraping /metrics under load: %v", err)
	}
	if err := obs.ValidateExposition(metrics); err != nil {
		t.Errorf("live exposition invalid: %v", err)
	}
	for _, want := range []string{"pbppm_live_precision", "pbppm_build_info", "pbppm_go_goroutines", "pbppm_slo_state"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("live exposition missing %s", want)
		}
	}
	sloBody, err := get(adminURL + "/debug/slo")
	if err != nil {
		t.Fatalf("fetching /debug/slo: %v", err)
	}
	var rep struct {
		Objectives []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"objectives"`
	}
	if err := json.Unmarshal([]byte(sloBody), &rep); err != nil {
		t.Fatalf("/debug/slo is not JSON: %v\n%s", err, sloBody)
	}
	if len(rep.Objectives) != 3 {
		t.Errorf("/debug/slo objectives = %d, want 3", len(rep.Objectives))
	}

	// Shut down while the load goroutines are still firing.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not drain and return after cancel")
	}
	close(stop)
	wg.Wait()

	logs := logBuf.String()
	for _, want := range []string{"final stats", "final quality", "final slo", "precision"} {
		if !strings.Contains(logs, want) {
			t.Errorf("shutdown log missing %q", want)
		}
	}
}

// TestClusterModeServesAndExposesShards boots the daemon with
// -shards 3: demand traffic from several client identities must be
// served through the router, the process exposition must carry the
// routing-tier series, each shard's registry must be mounted under
// /debug/shard/<id>/metrics, and /debug/stats must aggregate across
// shards. The short delta interval also exercises the publish fan-out
// to all shards while traffic is in flight.
func TestClusterModeServesAndExposesShards(t *testing.T) {
	cfg := testConfig()
	cfg.shards = 3
	logBuf := &syncBuffer{}
	a, err := newApp(cfg, obs.NewLogger(logBuf, slog.LevelInfo))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.listen(); err != nil {
		t.Fatal(err)
	}
	webURL := "http://" + a.webLn.Addr().String()
	adminURL := "http://" + a.adminLn.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()

	get := func(url string) (string, error) {
		resp, err := http.Get(url)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if body, err := get(adminURL + "/healthz"); err == nil && strings.Contains(body, "ok") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admin listener never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Enough distinct identities that every shard owns at least one.
	// These paths exist in every NASA-profile site build.
	pages := []string{"/d0/page0000.html", "/d1/page0001.html",
		"/d1/page0002.html", "/d1/page0003.html"}
	client := &http.Client{Timeout: 2 * time.Second}
	for c := 0; c < 12; c++ {
		for _, pg := range pages {
			req, _ := http.NewRequest(http.MethodGet, webURL+pg, nil)
			req.Header.Set("X-Client-ID", fmt.Sprintf("cluster-client-%d", c))
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("demand request: %v", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("demand request status %d", resp.StatusCode)
			}
		}
	}
	// Let at least one delta publish fan out to the shards.
	time.Sleep(150 * time.Millisecond)

	metrics, err := get(adminURL + "/metrics")
	if err != nil {
		t.Fatalf("scraping /metrics: %v", err)
	}
	if err := obs.ValidateExposition(metrics); err != nil {
		t.Errorf("router exposition invalid: %v", err)
	}
	for _, want := range []string{"pbppm_cluster_shards 3", `pbppm_shard_requests_total{shard="0"}`} {
		if !strings.Contains(metrics, want) {
			t.Errorf("router exposition missing %s", want)
		}
	}
	for _, id := range []string{"0", "1", "2"} {
		body, err := get(adminURL + "/debug/shard/" + id + "/metrics")
		if err != nil {
			t.Fatalf("scraping shard %s metrics: %v", id, err)
		}
		if err := obs.ValidateExposition(body); err != nil {
			t.Errorf("shard %s exposition invalid: %v", id, err)
		}
		if !strings.Contains(body, `pbppm_http_requests_total{kind="demand"}`) {
			t.Errorf("shard %s exposition missing demand counter", id)
		}
	}
	if body, _ := get(adminURL + "/debug/shard/9/metrics"); !strings.Contains(body, "not found") {
		t.Errorf("unknown shard id should 404, got %q", body)
	}

	stats, err := get(adminURL + "/debug/stats")
	if err != nil {
		t.Fatalf("fetching /debug/stats: %v", err)
	}
	if !strings.Contains(stats, "demand 48") {
		t.Errorf("/debug/stats should aggregate 48 demand requests across shards:\n%s", stats)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not drain and return after cancel")
	}
	logs := logBuf.String()
	if !strings.Contains(logs, `"shards":3`) && !strings.Contains(logs, "shards=3") {
		t.Errorf("serving log line missing shard count:\n%s", logs)
	}
	if !strings.Contains(logs, "final stats") {
		t.Error("shutdown log missing final stats")
	}
}

// TestLoadObjectivesFile: -slo-file overrides -slo and accepts the
// newline/comment grammar.
func TestLoadObjectivesFile(t *testing.T) {
	path := t.TempDir() + "/slo.conf"
	content := "# quality objectives\nkind=precision,target=0.3\n\nname=hr,kind=hit_ratio,target=0.2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	objs, err := loadObjectives(appConfig{slo: "kind=latency,target=0.5,threshold=1s", sloFile: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 || objs[0].Kind != "precision" || objs[1].Name != "hr" {
		t.Errorf("objectives = %+v", objs)
	}
}

// TestSnapshotFollowerMode boots a publisher daemon and a follower
// daemon pointed at its /snapshot endpoint: the follower — which
// trained nothing — must download and install the publisher's model,
// report the installed version in its exposition, and serve prefetch
// hints from the distributed model.
func TestSnapshotFollowerMode(t *testing.T) {
	pubLog := &syncBuffer{}
	pub, err := newApp(testConfig(), obs.NewLogger(pubLog, slog.LevelInfo))
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.listen(); err != nil {
		t.Fatal(err)
	}
	pubAdmin := "http://" + pub.adminLn.Addr().String()

	folCfg := testConfig()
	folCfg.snapshotAddr = pubAdmin + "/snapshot"
	folCfg.snapshotPoll = 50 * time.Millisecond
	folLog := &syncBuffer{}
	fol, err := newApp(folCfg, obs.NewLogger(folLog, slog.LevelInfo))
	if err != nil {
		t.Fatal(err)
	}
	if fol.maint.Predictor() != nil {
		t.Fatal("follower trained a model at boot")
	}
	if err := fol.listen(); err != nil {
		t.Fatal(err)
	}
	folWeb := "http://" + fol.webLn.Addr().String()
	folAdmin := "http://" + fol.adminLn.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 2)
	go func() { done <- pub.run(ctx) }()
	go func() { done <- fol.run(ctx) }()

	get := func(url string) (string, error) {
		resp, err := http.Get(url)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}

	// The publisher must offer a snapshot; the follower must install it.
	deadline := time.Now().Add(15 * time.Second)
	for {
		body, err := get(folAdmin + "/metrics")
		if err == nil && strings.Contains(body, "pbppm_snapshot_installs_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never installed a snapshot; metrics:\n%v", body)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if fol.maint.Predictor() == nil || fol.maint.Ranking() == nil {
		t.Fatal("follower install did not publish model and ranking")
	}

	// The follower serves hints from the distributed model: walk one
	// client far enough that the model has context to predict from.
	client := &http.Client{Timeout: 2 * time.Second}
	sawHint := false
	for _, pg := range []string{"/d0/page0000.html", "/d1/page0001.html", "/d1/page0002.html"} {
		req, _ := http.NewRequest(http.MethodGet, folWeb+pg, nil)
		req.Header.Set("X-Client-ID", "follower-client")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		if resp.Header.Get("X-Prefetch") != "" {
			sawHint = true
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("follower demand status %d", resp.StatusCode)
		}
	}
	if !sawHint {
		t.Error("follower issued no prefetch hints from the distributed model")
	}

	// The publisher's own exposition carries the distribution series.
	pubMetrics, err := get(pubAdmin + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pbppm_snapshot_version", "pbppm_snapshot_publishes_total"} {
		if !strings.Contains(pubMetrics, want) {
			t.Errorf("publisher exposition missing %s", want)
		}
	}

	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("a daemon did not drain and return after cancel")
		}
	}
	if !strings.Contains(folLog.String(), "snapshot follower mode") {
		t.Error("follower log missing mode line")
	}
}

// The maintenance loop compacts every -compact-interval, so newApp
// refuses a non-positive one before building anything.
func TestNewAppRejectsNonPositiveCompactInterval(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		cfg := testConfig()
		cfg.compactNear = d
		if _, err := newApp(cfg, obs.Discard()); err == nil || !strings.Contains(err.Error(), "-compact-interval") {
			t.Errorf("compact interval %v: newApp returned %v, want a -compact-interval error", d, err)
		}
	}
}
