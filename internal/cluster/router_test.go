package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pbppm/internal/obs"
	"pbppm/internal/server"
)

// TestRouterDeadBackendAnswers502 pins the router's failure behaviour
// when a shard process is down: the reverse proxy's round trip fails,
// and instead of the default handler's bare, uncounted 502 the router
// must answer a well-formed 502 naming the shard, count the failure per
// shard, and keep serving clients whose ring owner is alive.
func TestRouterDeadBackendAnswers502(t *testing.T) {
	live := server.New(testStore(), server.Config{TrustedPeers: []string{"127.0.0.1", "::1"}})
	liveTS := httptest.NewServer(live)
	defer liveTS.Close()

	// A backend URL with nothing listening: start a throwaway listener
	// to claim a port, then close it so connections are refused.
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadTS.URL
	deadTS.Close()

	reg := obs.NewRegistry()
	rt, err := New(Config{
		Backends: []string{liveTS.URL, deadURL},
		Obs:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	// Find one client routed to each backend; 128 vnodes per backend
	// make both arcs dense, so a handful of candidates suffices.
	ownedBy := map[int]string{}
	for i := 0; len(ownedBy) < 2 && i < 256; i++ {
		client := "client-" + strconv.Itoa(i)
		if id, ok := rt.Owner(client); ok {
			if _, seen := ownedBy[id]; !seen {
				ownedBy[id] = client
			}
		}
	}
	if len(ownedBy) != 2 {
		t.Fatal("could not find clients for both ring arcs")
	}

	do := func(client string) (*http.Response, string) {
		req, _ := http.NewRequest(http.MethodGet, rts.URL+"/home", nil)
		req.Header.Set(server.HeaderClientID, client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	// The dead shard's clients get a diagnosable 502, repeatedly.
	for i := 0; i < 3; i++ {
		resp, body := do(ownedBy[1])
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("dead backend status = %d, want 502", resp.StatusCode)
		}
		if !strings.Contains(body, "shard 1 backend unavailable") {
			t.Fatalf("dead backend body = %q", body)
		}
	}
	// The live shard's clients are unaffected.
	if resp, _ := do(ownedBy[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("live backend status = %d", resp.StatusCode)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	if err := obs.ValidateExposition(expo); err != nil {
		t.Errorf("router exposition invalid: %v", err)
	}
	for _, want := range []string{
		`pbppm_cluster_backend_errors_total{shard="1"} 3`,
		`pbppm_cluster_routing_errors_total{reason="backend"} 3`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}
	if strings.Contains(expo, `pbppm_cluster_backend_errors_total{shard="0"} 0`) {
		// Zero-valued family lines are fine; just make sure the live
		// shard counted no failures.
		t.Log("live shard backend errors at zero, as expected")
	}
	if strings.Contains(expo, `pbppm_cluster_backend_errors_total{shard="0"} 1`) {
		t.Error("live shard counted a backend failure")
	}
}

// The reverse proxy stamps the routed identity on its own outbound copy
// of the request; the inbound request handed to ServeHTTP keeps its
// headers, as the http.Handler contract requires. The client here is
// an untrusted peer forging X-Client-ID, so the identity the backend
// sees is the router's resolution (the peer's host), not the forgery.
// Naming the header hop-by-hop in Connection does not strip the stamp:
// it is set after the proxy drops hop-by-hop headers.
func TestRemoteMemberStampsOutboundCopy(t *testing.T) {
	seen := make(chan string, 1)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Get(server.HeaderClientID)
	}))
	defer backend.Close()
	c, err := New(Config{Backends: []string{backend.URL}, TrustedPeers: []string{"10.0.0.1"}})
	if err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodGet, "/home", nil)
	req.RemoteAddr = "203.0.113.9:4000"
	req.Header.Set(server.HeaderClientID, "mallory")
	req.Header.Set("Connection", server.HeaderClientID)
	before := req.Header.Clone()
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := <-seen; got != "203.0.113.9" {
		t.Errorf("backend saw identity %q, want the router's resolution 203.0.113.9", got)
	}
	if !reflect.DeepEqual(req.Header, before) {
		t.Errorf("inbound headers changed: %v, were %v", req.Header, before)
	}
}
