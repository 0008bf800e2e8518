package maintain

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
)

func TestNewFollowerValidation(t *testing.T) {
	install := func(model markov.Predictor, rank *popularity.Ranking) error { return nil }
	if _, err := NewFollower(FollowerConfig{Install: install}); err == nil {
		t.Error("follower without URL accepted")
	}
	if _, err := NewFollower(FollowerConfig{URL: "http://x/snapshot"}); err == nil {
		t.Error("follower without Install accepted")
	}
}

// corruptingServer wraps a Publisher and, per request, optionally
// mangles the response: truncating it mid-body, flipping payload bits,
// or rewriting sections wholesale.
type corruptingServer struct {
	pub  *Publisher
	mode atomic.Value // string: "", "truncate", "flip", "reseal", "sn1", "sn3", "ar3", "status"
}

func (cs *corruptingServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode, _ := cs.mode.Load().(string)
	if mode == "status" {
		http.Error(w, "shard is on fire", http.StatusInternalServerError)
		return
	}
	if mode == "" {
		cs.pub.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	cs.pub.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	switch mode {
	case "truncate":
		// Advertise the full length, send half, kill the connection:
		// the client sees an unexpected EOF mid-transfer.
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	case "flip":
		// Full-length body with bits flipped under the checksum.
		tampered := append([]byte(nil), body...)
		if len(tampered) > 40 {
			tampered[len(tampered)/2] ^= 0x08
		}
		w.WriteHeader(rec.Code)
		w.Write(tampered)
	case "reseal":
		// Corrupt the model section and recompute the trailer, so the
		// checksum passes and the failure surfaces at decode.
		tampered := append([]byte(nil), body...)
		if len(tampered) > 96 {
			for i := 40; i < 72; i++ {
				tampered[i] ^= 0xFF
			}
			resealSnapshot(tampered)
		}
		w.WriteHeader(rec.Code)
		w.Write(tampered)
	case "sn1":
		// The same snapshot in the pbppmSN1 layout an older build
		// published: its magic, and a codec-kind section after the
		// version.
		old := append([]byte("pbppmSN1"), body[8:16]...)
		old = append(old, 0, 0, 0, 10)
		old = append(old, "core/pbppm"...)
		old = append(old, body[16:]...)
		resealSnapshot(old)
		w.Header().Set("Content-Length", strconv.Itoa(len(old)))
		w.WriteHeader(rec.Code)
		w.Write(old)
	case "sn3":
		// The same snapshot under the pbppmSN3 magic of an older build,
		// resealed so only the magic is wrong.
		old := append([]byte("pbppmSN3"), body[8:]...)
		resealSnapshot(old)
		w.WriteHeader(rec.Code)
		w.Write(old)
	case "ar3":
		// The same snapshot carrying its arena under the pbppmAR3 magic
		// of an older build's layout with URL offsets, resealed so the
		// checksum passes and the failure surfaces at decode.
		old := bytes.Replace(body, []byte("pbppmAR4"), []byte("pbppmAR3"), 1)
		if bytes.Equal(old, body) {
			panic("ar3: snapshot carries no pbppmAR4 arena")
		}
		resealSnapshot(old)
		w.WriteHeader(rec.Code)
		w.Write(old)
	}
}

// TestFollowerCorruptDownloadNeverPublishes is the distribution
// channel's acceptance test: a snapshot download that dies mid-transfer,
// fails its checksum, fails to decode (a corrupt model, an image in an
// older build's pbppmSN1 or pbppmSN3 format, or a model whose arena is
// in an older build's pbppmAR3 layout), or is rejected by the install
// gate must never replace the follower's live model, and each failure
// mode must land in its own swap-failure counter.
func TestFollowerCorruptDownloadNeverPublishes(t *testing.T) {
	pubM := trainedMaintainer(t, nil)
	pub := NewPublisher(pubM, PublisherConfig{})
	cs := &corruptingServer{pub: pub}
	srv := httptest.NewServer(cs)
	defer srv.Close()

	reg := obs.NewRegistry()
	folM, err := New(Config{Factory: pbFactory, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := NewFollower(FollowerConfig{URL: srv.URL, Install: folM.InstallSnapshot, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}

	// Install version 1 cleanly; this is the model every failure below
	// must leave untouched.
	if err := fol.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	live := folM.Predictor()
	if live == nil {
		t.Fatal("baseline install failed")
	}

	// Publish version 2, then sabotage every delivery of it.
	pubM.Observe(mkSession(9, "/home", "/v2"))
	pubM.Rebuild(epoch.Add(24 * time.Hour))

	failures := func(reason string) int64 {
		return counterValue(t, reg, "pbppm_snapshot_swap_failures_total", reason)
	}
	cases := []struct {
		mode   string
		reason string
	}{
		{"truncate", swapFetch},
		{"status", swapFetch},
		{"flip", swapChecksum},
		{"reseal", swapDecode},
		{"sn1", swapDecode},
		{"sn3", swapDecode},
		{"ar3", swapDecode},
	}
	for _, tc := range cases {
		before := failures(tc.reason)
		cs.mode.Store(tc.mode)
		err := fol.Poll(context.Background())
		if err == nil {
			t.Fatalf("%s: corrupted download accepted", tc.mode)
		}
		if (tc.mode == "sn1" || tc.mode == "sn3") && !strings.Contains(err.Error(), "bad snapshot magic") {
			t.Errorf("%s: err = %v, want a bad-magic error", tc.mode, err)
		}
		if tc.mode == "ar3" && !strings.Contains(err.Error(), `arena: bad magic "pbppmAR3"`) {
			t.Errorf("ar3: err = %v, want a bad arena magic error", err)
		}
		if folM.Predictor() != live {
			t.Fatalf("%s: corrupted download replaced the live model", tc.mode)
		}
		if fol.Version() != 1 {
			t.Fatalf("%s: installed version moved to %d", tc.mode, fol.Version())
		}
		if after := failures(tc.reason); after != before+1 {
			t.Errorf("%s: swap_failures{%s} = %d, want %d", tc.mode, tc.reason, after, before+1)
		}
	}

	// Install-gate rejection: deliver an intact snapshot into a follower
	// whose install callback refuses it.
	cs.mode.Store("")
	regRej := obs.NewRegistry()
	var rejected atomic.Int64
	rej, err := NewFollower(FollowerConfig{
		URL: srv.URL,
		Install: func(model markov.Predictor, rank *popularity.Ranking) error {
			rejected.Add(1)
			return errors.New("gate says no")
		},
		Obs: regRej,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rej.Poll(context.Background()); err == nil {
		t.Fatal("rejected install reported success")
	}
	if rejected.Load() != 1 || rej.Version() != 0 {
		t.Fatalf("reject path: calls=%d version=%d", rejected.Load(), rej.Version())
	}
	if got := counterValue(t, regRej, "pbppm_snapshot_swap_failures_total", swapInstall); got != 1 {
		t.Errorf("swap_failures{install} = %d", got)
	}

	// And after all that sabotage the healthy path still converges.
	if err := fol.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fol.Version() != 2 || folM.Predictor() == live {
		t.Fatalf("recovery poll: version=%d", fol.Version())
	}
}

// counterValue reads a labeled counter back out of the registry's
// exposition, so tests assert on exactly what operators will see.
func counterValue(t *testing.T, reg *obs.Registry, name, reason string) int64 {
	t.Helper()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, name) && strings.Contains(line, `reason="`+reason+`"`) {
			fields := strings.Fields(line)
			v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}
