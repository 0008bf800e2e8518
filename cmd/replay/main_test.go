package main

import (
	"bytes"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbppm/internal/ppm"
	"pbppm/internal/server"
)

// writeTrace writes a CLF trace in which two clients each click /home
// and then /news, and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	const clf = `10.0.0.1 - - [01/Jul/1995:00:00:01 -0400] "GET /home HTTP/1.0" 200 4
10.0.0.2 - - [01/Jul/1995:00:00:02 -0400] "GET /home HTTP/1.0" 200 4
10.0.0.1 - - [01/Jul/1995:00:00:31 -0400] "GET /news HTTP/1.0" 200 4
10.0.0.2 - - [01/Jul/1995:00:00:32 -0400] "GET /news HTTP/1.0" 200 4
`
	path := filepath.Join(t.TempDir(), "day.log")
	if err := os.WriteFile(path, []byte(clf), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayDeliversEveryHitReport replays the trace against a server
// whose model hints /news after /home. Each client prefetches /news and
// then hits it on its last click, so the report of that hit rides on no
// later request: only the flush at the end delivers it to the server's
// live scorer, on the whole replay and on one cut by -max-requests.
func TestReplayDeliversEveryHitReport(t *testing.T) {
	model := ppm.New(ppm.Config{})
	for i := 0; i < 4; i++ {
		model.TrainSequence([]string{"/home", "/news"})
	}
	store := server.MapStore{
		"/home": {URL: "/home", Body: []byte("home")},
		"/news": {URL: "/news", Body: []byte("news")},
	}
	path := writeTrace(t)
	for _, tc := range []struct {
		args    []string
		lines   []string
		reports int64
	}{
		{nil, []string{
			"replayed 4 requests from 2 clients",
			"hit ratio 50.0% (2 hits, of which 2 prefetch hits), 0 errors",
		}, 2},
		{[]string{"-max-requests", "3"}, []string{
			"replayed 3 requests from 2 clients",
			"hit ratio 33.3% (1 hits, of which 1 prefetch hits), 0 errors",
		}, 1},
	} {
		srv := server.New(store, server.Config{Predictor: model})
		ts := httptest.NewServer(srv)
		var stdout, stderr bytes.Buffer
		args := append(append([]string{"-server", ts.URL}, tc.args...), path)
		code := run(args, &stdout, &stderr)
		ts.Close()
		if code != 0 {
			t.Fatalf("%v: exit %d, want 0; stderr:\n%s", args, code, stderr.String())
		}
		for _, want := range tc.lines {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%v: output lacks %q:\n%s", args, want, stdout.String())
			}
		}
		if got := srv.QualityTotal().PrefetchHits; got != tc.reports {
			t.Errorf("%v: server counted %d reported prefetch hits, want %d", args, got, tc.reports)
		}
	}
}

// TestReplayFailsWhenRequestsFail checks that a replay whose requests
// all fail exits non-zero instead of reporting success.
func TestReplayFailsWhenRequestsFail(t *testing.T) {
	// A listener closed at once leaves an address nothing serves.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-server", "http://" + addr, writeTrace(t)}, &stdout, &stderr); code == 0 {
		t.Fatalf("exit 0 against an unreachable server; stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "4 errors") {
		t.Errorf("report does not count the failed requests:\n%s", stdout.String())
	}
}
