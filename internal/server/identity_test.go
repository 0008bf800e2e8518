package server

import (
	"net/http/httptest"
	"strings"
	"testing"

	"pbppm/internal/quality"
)

// get serves one GET through the server with an explicit peer address
// and optional identity header, the way a router hop or a direct
// client would look on the wire.
func get(t *testing.T, srv *Server, url, remoteAddr, clientHeader string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	req.RemoteAddr = remoteAddr
	if clientHeader != "" {
		req.Header.Set(HeaderClientID, clientHeader)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// Regression for the spoofable-identity bug: with TrustedPeers set, an
// identity header from an unlisted peer must be ignored (it would let
// any client poison another client's session context), while the
// trusted router hop keeps asserting distinct per-client identities
// from one address.
func TestTrustedPeersGateIdentityHeader(t *testing.T) {
	srv := New(testStore(), Config{TrustedPeers: []string{"10.0.0.9"}})

	// An untrusted peer forging X-Client-ID falls back to its host.
	get(t, srv, "/home", "203.0.113.7:5555", "victim")
	if ctx := srv.contextURLs("victim"); ctx != nil {
		t.Errorf("forged identity opened a session: %v", ctx)
	}
	if ctx := srv.contextURLs("203.0.113.7"); strings.Join(ctx, " ") != "/home" {
		t.Errorf("untrusted peer context = %v, want [/home]", ctx)
	}

	// The trusted router stamps distinct identities on forwarded hops;
	// all arrive from the router's address yet keep separate contexts.
	get(t, srv, "/news", "10.0.0.9:40001", "alice")
	get(t, srv, "/sports", "10.0.0.9:40002", "bob")
	if ctx := srv.contextURLs("alice"); strings.Join(ctx, " ") != "/news" {
		t.Errorf("alice context = %v", ctx)
	}
	if ctx := srv.contextURLs("bob"); strings.Join(ctx, " ") != "/sports" {
		t.Errorf("bob context = %v", ctx)
	}
	// Requests from the router without a header collapse to the router
	// host — the failure mode the trust gate exists to make visible
	// rather than silent: the router must stamp every hop.
	get(t, srv, "/home", "10.0.0.9:40003", "")
	if ctx := srv.contextURLs("10.0.0.9"); strings.Join(ctx, " ") != "/home" {
		t.Errorf("router-host fallback context = %v", ctx)
	}
}

// Without TrustedPeers the legacy contract holds: cooperating clients
// talking straight to the server assert their own identity.
func TestEmptyTrustedPeersHonorsHeaderFromAnyPeer(t *testing.T) {
	srv := New(testStore(), Config{})
	get(t, srv, "/home", "203.0.113.7:5555", "carol")
	if ctx := srv.contextURLs("carol"); strings.Join(ctx, " ") != "/home" {
		t.Errorf("direct-client context = %v", ctx)
	}
}

func TestIdentityPolicyTrustsPeer(t *testing.T) {
	ip := NewIdentityPolicy([]string{"10.0.0.9", "::1"})
	cases := map[string]bool{
		"10.0.0.9:123": true,
		"[::1]:80":     true,
		"10.0.0.8:123": false,
		"10.0.0.9":     true, // portless RemoteAddr still matches
		"evil":         false,
	}
	for addr, want := range cases {
		if got := ip.trustsPeer(addr); got != want {
			t.Errorf("trustsPeer(%q) = %v, want %v", addr, got, want)
		}
	}
	if !NewIdentityPolicy(nil).trustsPeer("anything:1") {
		t.Error("empty policy must trust every peer")
	}
}

// Regression for the invisible-drop bug: a prefetch-hit report that
// matches no outstanding hint record must be counted in
// pbppm_hint_reports_unmatched_total (it still scores, so the live
// quality metrics do not lose the hit).
func TestUnmatchedHitReportsAreCounted(t *testing.T) {
	srv := New(testStore(), Config{Predictor: trainedPB()})

	// Hint /news to alice, then report a hit for it: matched.
	get(t, srv, "/home", "1.2.3.4:1", "alice")
	req := httptest.NewRequest("GET", "/news/today", nil)
	req.RemoteAddr = "1.2.3.4:1"
	req.Header.Set(HeaderClientID, "alice")
	req.Header.Set(HeaderPrefetchReport, FormatReport([]ReportEntry{
		{URL: "/news", Outcome: quality.PrefetchHit},
	}))
	srv.ServeHTTP(httptest.NewRecorder(), req)
	if n := srv.Stats().HintReportsUnmatched; n != 0 {
		t.Fatalf("matched report counted as unmatched: %d", n)
	}

	// A report for a URL this server never hinted: unmatched, counted,
	// still scored as a prefetch hit.
	before := srv.QualityTotal().PrefetchHits
	req = httptest.NewRequest("GET", "/", nil)
	req.RemoteAddr = "1.2.3.4:1"
	req.Header.Set(HeaderClientID, "alice")
	req.Header.Set(HeaderPrefetchReportOnly, "1")
	req.Header.Set(HeaderPrefetchReport, FormatReport([]ReportEntry{
		{URL: "/sports", Outcome: quality.PrefetchHit},
	}))
	srv.ServeHTTP(httptest.NewRecorder(), req)
	if n := srv.Stats().HintReportsUnmatched; n != 1 {
		t.Errorf("HintReportsUnmatched = %d, want 1", n)
	}
	if after := srv.QualityTotal().PrefetchHits; after != before+1 {
		t.Errorf("unmatched report not scored: prefetch hits %d -> %d", before, after)
	}
}

// TestReportsForURLsOutsideTheStoreScoreNothing: a hit report for a URL
// the content store does not hold, of either outcome, names no document
// the server served or hinted. It is counted as unmatched and scores
// nothing, so made-up URLs cannot raise the live hit ratio or precision,
// emit HintHit events, or grow the server's URL table.
func TestReportsForURLsOutsideTheStoreScoreNothing(t *testing.T) {
	log := &eventLog{}
	srv := New(testStore(), Config{Predictor: trainedPB(), OnHintEvent: log.add})
	get(t, srv, "/home", "1.2.3.4:1", "alice")
	before, table := srv.QualityTotal(), tableURLs(srv)

	doReport(srv, "alice", []ReportEntry{
		{URL: "/made-up", Outcome: quality.PrefetchHit},
		{URL: "/also-made-up", Outcome: quality.CacheHit},
	})
	if n := srv.Stats().HintReportsUnmatched; n != 2 {
		t.Errorf("HintReportsUnmatched = %d, want 2", n)
	}
	if after := srv.QualityTotal(); after != before {
		t.Errorf("reports outside the store scored: quality %+v -> %+v", before, after)
	}
	if hits := log.ofType(HintHit); len(hits) != 0 {
		t.Errorf("reports outside the store emitted hit events: %+v", hits)
	}
	if after := tableURLs(srv); len(after) != len(table) {
		t.Errorf("URL table grew from %q to %q", table, after)
	}
}
