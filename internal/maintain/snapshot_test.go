package maintain

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/obs"
)

// trainedMaintainer builds a maintainer with one rebuilt PB-PPM model
// and a live ranking.
func trainedMaintainer(t *testing.T, reg *obs.Registry) *Maintainer {
	t.Helper()
	m, err := New(Config{Factory: pbFactory, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		m.Observe(mkSession(i, "/home", "/news", "/sports"))
		m.Observe(mkSession(i, "/home", "/weather"))
	}
	if m.Rebuild(epoch.Add(12*time.Hour)) == nil {
		t.Fatal("rebuild failed")
	}
	return m
}

func TestSnapshotWireRoundTrip(t *testing.T) {
	m := trainedMaintainer(t, nil)
	frozen := m.Predictor().(*markov.FrozenTree)

	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, 42, frozen, m.Ranking()); err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 42 {
		t.Errorf("version = %d", snap.Version)
	}
	if snap.Ranking == nil {
		t.Fatal("ranking did not travel")
	}
	if g, w := snap.Ranking.GradeOf("/home"), m.Ranking().GradeOf("/home"); g != w {
		t.Errorf("decoded ranking grades /home %v, want %v", g, w)
	}
	want := m.Predictor().Predict([]string{"/home"})
	if got := snap.Model.Predict([]string{"/home"}); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded model predicts %+v, want %+v", got, want)
	}

	// Without a ranking the section is empty and decodes to nil.
	buf.Reset()
	if err := EncodeSnapshot(&buf, 1, frozen, nil); err != nil {
		t.Fatal(err)
	}
	if snap, err = DecodeSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if snap.Ranking != nil {
		t.Error("nil ranking round-tripped non-nil")
	}
}

func TestDecodeSnapshotRejectsCorruption(t *testing.T) {
	m := trainedMaintainer(t, nil)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, 7, m.Predictor().(*markov.FrozenTree), m.Ranking()); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Every truncation point must fail, never panic.
	for cut := 0; cut < len(valid); cut += 13 {
		if _, err := DecodeSnapshot(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// A single flipped bit anywhere under the checksum must be caught as
	// a checksum error before any decoder runs.
	for _, off := range []int{len(snapshotMagic) + 3, len(valid) / 2, len(valid) - 9} {
		tampered := append([]byte(nil), valid...)
		tampered[off] ^= 0x40
		if _, err := DecodeSnapshot(tampered); !errors.Is(err, ErrChecksum) {
			t.Errorf("flip at %d: err = %v, want ErrChecksum", off, err)
		}
	}

	// A structurally corrupt payload with a *recomputed* checksum must
	// fall through to the decoders and still fail: corrupt the embedded
	// model section and re-seal the envelope.
	tampered := append([]byte(nil), valid...)
	for i := len(snapshotMagic) + 8 + 8; i < len(snapshotMagic)+8+8+32; i++ {
		tampered[i] ^= 0xFF
	}
	resealSnapshot(tampered)
	if _, err := DecodeSnapshot(tampered); err == nil {
		t.Error("corrupt model section with valid checksum accepted")
	} else if errors.Is(err, ErrChecksum) {
		t.Errorf("resealed corruption reported as checksum error: %v", err)
	}

	if _, err := DecodeSnapshot([]byte("pbppmXX1 wrong magic entirely.....")); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}
}

func TestPublisherServesVersionedSnapshots(t *testing.T) {
	reg := obs.NewRegistry()
	m := trainedMaintainer(t, nil)
	pub := NewPublisher(m, PublisherConfig{Obs: reg})

	// The subscription catches up on the already-published model.
	if v := pub.Version(); v != 1 {
		t.Fatalf("version after catch-up = %d", v)
	}
	srv := httptest.NewServer(pub)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body := readAllBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || resp.Header.Get("X-Snapshot-Version") != "1" {
		t.Fatalf("headers: etag=%q version=%q", etag, resp.Header.Get("X-Snapshot-Version"))
	}
	snap, err := DecodeSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 || snap.Ranking == nil {
		t.Fatalf("payload: version=%d ranking=%v", snap.Version, snap.Ranking)
	}

	// Matching ETag: 304 with no body.
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("If-None-Match", etag)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	readAllBody(t, resp)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional status = %d", resp.StatusCode)
	}

	// A new publish bumps the version and changes the ETag.
	m.Observe(mkSession(6, "/home", "/scores"))
	m.Rebuild(epoch.Add(18 * time.Hour))
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	body = readAllBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-publish status = %d", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == etag {
		t.Error("ETag unchanged across publishes")
	}
	if snap, err = DecodeSnapshot(body); err != nil || snap.Version != 2 {
		t.Fatalf("post-publish payload: %v version=%d", err, snap.Version)
	}
}

func TestPublisherBeforeFirstPublish(t *testing.T) {
	m, err := New(Config{Factory: pbFactory})
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(m, PublisherConfig{})
	srv := httptest.NewServer(pub)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	readAllBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status before first publish = %d", resp.StatusCode)
	}
}

func TestPublisherLongPoll(t *testing.T) {
	m := trainedMaintainer(t, nil)
	pub := NewPublisher(m, PublisherConfig{MaxWait: 5 * time.Second})
	srv := httptest.NewServer(pub)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	readAllBody(t, resp)
	etag := resp.Header.Get("ETag")

	// Holding the current ETag, a waiter is released by the next publish.
	released := make(chan *http.Response, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"?wait=4s", nil)
		req.Header.Set("If-None-Match", etag)
		r, err := http.DefaultClient.Do(req)
		if err == nil {
			released <- r
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter park
	m.Observe(mkSession(7, "/home", "/late"))
	m.Rebuild(epoch.Add(20 * time.Hour))
	select {
	case r := <-released:
		body := readAllBody(t, r)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("long-poll status = %d", r.StatusCode)
		}
		if snap, err := DecodeSnapshot(body); err != nil || snap.Version != 2 {
			t.Fatalf("long-poll payload: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long-poll not released by publish")
	}

	// A short wait with no publish times out to 304.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"?wait=50ms", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAllBody(t, resp2)
	if resp2.StatusCode != http.StatusOK {
		// Stale ETag (none sent) returns the payload immediately...
		t.Fatalf("wait with no ETag = %d, want immediate 200", resp2.StatusCode)
	}
	req.Header.Set("If-None-Match", resp2.Header.Get("ETag"))
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAllBody(t, resp3)
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("expired wait = %d, want 304", resp3.StatusCode)
	}
}

func TestFollowerTracksPublisher(t *testing.T) {
	pubM := trainedMaintainer(t, nil)
	pub := NewPublisher(pubM, PublisherConfig{})
	srv := httptest.NewServer(pub)
	defer srv.Close()

	reg := obs.NewRegistry()
	folM, err := New(Config{Factory: pbFactory, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := NewFollower(FollowerConfig{
		URL:     srv.URL,
		Install: folM.InstallSnapshot,
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := fol.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fol.Version() != 1 {
		t.Fatalf("installed version = %d", fol.Version())
	}
	if folM.Predictor() == nil || folM.Ranking() == nil {
		t.Fatal("install did not publish model and ranking")
	}
	want := pubM.Predictor().Predict([]string{"/home"})
	if got := folM.Predictor().Predict([]string{"/home"}); !reflect.DeepEqual(got, want) {
		t.Errorf("follower predicts %+v, publisher %+v", got, want)
	}
	if g, w := folM.Ranking().GradeOf("/home"), pubM.Ranking().GradeOf("/home"); g != w {
		t.Errorf("follower grades /home %v, publisher %v", g, w)
	}

	// An unchanged publisher is a 304 no-op.
	if err := fol.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fol.Version() != 1 {
		t.Fatalf("version moved without a publish: %d", fol.Version())
	}

	// A publisher-side update propagates on the next poll.
	pubM.Observe(mkSession(8, "/home", "/fresh"))
	pubM.Rebuild(epoch.Add(22 * time.Hour))
	if err := fol.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fol.Version() != 2 {
		t.Fatalf("version after publish = %d", fol.Version())
	}
}

// readAllBody drains and closes an HTTP response body.
func readAllBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resealSnapshot recomputes the trailing CRC over a tampered payload,
// simulating corruption the checksum cannot catch (or an attacker who
// can also rewrite the trailer).
func resealSnapshot(data []byte) {
	sum := crc64.Checksum(data[:len(data)-8], snapshotCRC)
	binary.BigEndian.PutUint64(data[len(data)-8:], sum)
}
