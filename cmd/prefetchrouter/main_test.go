package main

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"pbppm/internal/obs"
)

// syncBuffer is a bytes.Buffer safe for the logger's concurrent writes.
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

// TestRunRejectsBadConfig: run returns an error, without serving, for
// an empty backend list, a backend that is not an absolute URL, and a
// routing address already in use.
func TestRunRejectsBadConfig(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, c := range []struct {
		name, addr, backends, want string
	}{
		{"no backends", "127.0.0.1:0", " , ", "-backends"},
		{"malformed backend", "127.0.0.1:0", "http://127.0.0.1:1,not-a-url", "bad backend URL"},
		{"address in use", busy.Addr().String(), "http://127.0.0.1:1", "binding"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := run(ctx, c.addr, "", c.backends, "", obs.Discard())
		cancel()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: run returned %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

// TestRunServesUntilCancelled: started on ephemeral ports with an admin
// listener, run proxies a request to its backend and answers /healthz,
// then returns nil once its context is cancelled.
func TestRunServesUntilCancelled(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "from the shard "+r.URL.Path)
	}))
	defer backend.Close()

	logs := &syncBuffer{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, "127.0.0.1:0", "127.0.0.1:0", backend.URL, "", obs.NewLogger(logs, slog.LevelInfo))
	}()

	// The listeners' addresses come from run's startup log lines.
	addrOf := func(msg string) string {
		re := regexp.MustCompile(`msg="?` + msg + `"? .* addr=(\S+)`)
		deadline := time.Now().Add(10 * time.Second)
		for {
			if m := re.FindStringSubmatch(logs.String()); m != nil {
				return m[1]
			}
			select {
			case err := <-done:
				t.Fatalf("run returned %v before logging %q", err, msg)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("no %q line in the log:\n%s", msg, logs.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	get := func(url string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-Id", "me")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
		}
		return string(body)
	}
	if body := get("http://" + addrOf("routing") + "/d0/page0000.html"); body != "from the shard /d0/page0000.html" {
		t.Errorf("routed request answered %q", body)
	}
	if body := get("http://" + addrOf("admin listening") + "/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz answered %q", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancellation, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}
