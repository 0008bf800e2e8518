package maintain

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
)

// DefaultMaxSnapshotBytes bounds a follower's download: 1 GiB, far
// above any realistic model but low enough that a corrupt
// Content-Length cannot OOM the process.
const DefaultMaxSnapshotBytes = 1 << 30

// Swap-failure reasons recorded in pbppm_snapshot_swap_failures_total.
const (
	// swapFetch: the HTTP round trip failed — connection refused, cut
	// mid-transfer, non-2xx status, or an over-size payload.
	swapFetch = "fetch"
	// swapChecksum: the payload arrived whole but its CRC trailer does
	// not match — bit rot or truncation the transport did not surface.
	swapChecksum = "checksum"
	// swapDecode: the image or a section would not decode — another
	// build's envelope or arena (bad magic), a corrupt model image.
	swapDecode = "decode"
	// swapInstall: the model decoded but the local publish gate rejected
	// it (e.g. empty model over a trained one) or panicked.
	swapInstall = "install"
)

// followerMetrics: the distribution channel's follower-side metrics.
type followerMetrics struct {
	installedVersion *obs.Gauge
	versionLag       *obs.Gauge
	fetchedBytes     *obs.Counter
	installs         *obs.Counter
	failFetch        *obs.Counter
	failChecksum     *obs.Counter
	failDecode       *obs.Counter
	failInstall      *obs.Counter
}

func newFollowerMetrics(reg *obs.Registry) *followerMetrics {
	reason := func(v string) obs.Label { return obs.Label{Name: "reason", Value: v} }
	const failHelp = "Snapshot downloads that did not become the live model, by reason; the previous model stayed live."
	return &followerMetrics{
		installedVersion: reg.Gauge("pbppm_snapshot_installed_version",
			"Version of the last snapshot successfully installed from the publisher."),
		versionLag: reg.Gauge("pbppm_snapshot_version_lag",
			"Publisher's offered version minus the installed version; nonzero means a download or install is failing."),
		fetchedBytes: reg.Counter("pbppm_snapshot_fetched_bytes_total",
			"Snapshot payload bytes downloaded from the publisher."),
		installs: reg.Counter("pbppm_snapshot_installs_total",
			"Snapshots downloaded, validated, and swapped in as the live model."),
		failFetch:    reg.Counter("pbppm_snapshot_swap_failures_total", failHelp, reason(swapFetch)),
		failChecksum: reg.Counter("pbppm_snapshot_swap_failures_total", failHelp, reason(swapChecksum)),
		failDecode:   reg.Counter("pbppm_snapshot_swap_failures_total", failHelp, reason(swapDecode)),
		failInstall:  reg.Counter("pbppm_snapshot_swap_failures_total", failHelp, reason(swapInstall)),
	}
}

// FollowerConfig parameterizes a Follower.
type FollowerConfig struct {
	// URL is the publisher's snapshot endpoint, e.g.
	// "http://10.0.0.1:8081/snapshot"; required.
	URL string
	// Install receives every validated snapshot; required. It must swap
	// the model and ranking in atomically (Maintainer.InstallSnapshot
	// does) and return an error to reject the snapshot — the follower
	// keeps its previous ETag so the next poll retries.
	Install func(model markov.Predictor, rank *popularity.Ranking) error
	// Poll is the interval between polls in Run; zero selects 5 seconds.
	Poll time.Duration
	// Wait, when positive, is sent as the ?wait= long-poll duration so
	// version changes propagate in one round trip instead of a poll
	// interval. The client timeout must exceed it.
	Wait time.Duration
	// Client is the HTTP client; nil selects one with a sane timeout
	// derived from Wait.
	Client *http.Client
	// Obs registers the follower-side distribution metrics; nil keeps
	// them process-internal.
	Obs *obs.Registry
	// Logger receives install and failure lines, tagged
	// component=snapshot; nil discards them.
	Logger *slog.Logger
}

func (c FollowerConfig) poll() time.Duration {
	if c.Poll <= 0 {
		return 5 * time.Second
	}
	return c.Poll
}

// Follower polls a Publisher's snapshot endpoint and installs each new
// version through its Install callback. Every failure mode — transport,
// checksum, decode, install — leaves the previously installed model
// live and is counted by reason; the next poll simply retries. The
// zero-trust posture is deliberate: a follower treats the publisher's
// bytes as untrusted input, because "the publisher" may really be a
// half-dead proxy or a mid-deploy version skew.
type Follower struct {
	cfg     FollowerConfig
	client  *http.Client
	metrics *followerMetrics
	log     *slog.Logger

	etag      string // ETag of the last installed snapshot; "" fetches unconditionally
	installed atomic.Uint64
}

// NewFollower validates the config and returns a follower; it performs
// no I/O until Poll or Run.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("maintain: follower needs a snapshot URL")
	}
	if cfg.Install == nil {
		return nil, fmt.Errorf("maintain: follower needs an Install callback")
	}
	client := cfg.Client
	if client == nil {
		timeout := 30 * time.Second
		if cfg.Wait > 0 {
			timeout = cfg.Wait + 30*time.Second
		}
		client = &http.Client{Timeout: timeout}
	}
	return &Follower{
		cfg:     cfg,
		client:  client,
		metrics: newFollowerMetrics(cfg.Obs),
		log:     obs.Component(cfg.Logger, "snapshot"),
	}, nil
}

// Version reports the last successfully installed snapshot version,
// zero before the first install. Safe for concurrent use.
func (f *Follower) Version() uint64 { return f.installed.Load() }

// Poll performs one fetch-validate-install round trip. It returns nil
// when the publisher has nothing new (304, or 404 before its first
// publish) and the error otherwise, after counting it by reason. Not
// safe for concurrent use with itself or Run.
func (f *Follower) Poll(ctx context.Context) error {
	url := f.cfg.URL
	if f.cfg.Wait > 0 {
		url += "?wait=" + f.cfg.Wait.String()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		f.metrics.failFetch.Inc()
		return fmt.Errorf("maintain: snapshot request: %w", err)
	}
	if f.etag != "" {
		req.Header.Set("If-None-Match", f.etag)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.metrics.failFetch.Inc()
		f.log.Warn("snapshot fetch failed; previous model stays live", "error", err)
		return fmt.Errorf("maintain: snapshot fetch: %w", err)
	}
	defer resp.Body.Close()

	f.observeLag(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		// Fall through to download.
	case http.StatusNotModified, http.StatusNotFound:
		// Nothing new, or the publisher has not published yet.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil
	default:
		f.metrics.failFetch.Inc()
		f.log.Warn("snapshot fetch failed; previous model stays live",
			"status", resp.StatusCode)
		return fmt.Errorf("maintain: snapshot fetch: status %d", resp.StatusCode)
	}

	data, err := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxSnapshotBytes+1))
	if err != nil {
		// The connection died mid-body: a truncated download. The
		// checksum would catch it too, but the transport saw it first.
		f.metrics.failFetch.Inc()
		f.log.Warn("snapshot download cut mid-transfer; previous model stays live", "error", err)
		return fmt.Errorf("maintain: snapshot download: %w", err)
	}
	if len(data) > DefaultMaxSnapshotBytes {
		f.metrics.failFetch.Inc()
		return fmt.Errorf("maintain: snapshot exceeds %d-byte bound", DefaultMaxSnapshotBytes)
	}
	f.metrics.fetchedBytes.Add(int64(len(data)))

	snap, err := DecodeSnapshot(data)
	if err != nil {
		if errors.Is(err, ErrChecksum) {
			f.metrics.failChecksum.Inc()
		} else {
			f.metrics.failDecode.Inc()
		}
		f.log.Warn("snapshot rejected; previous model stays live", "error", err)
		return err
	}
	if err := f.cfg.Install(snap.Model, snap.Ranking); err != nil {
		f.metrics.failInstall.Inc()
		f.log.Warn("snapshot install rejected; previous model stays live",
			"version", snap.Version, "error", err)
		return err
	}

	f.etag = resp.Header.Get("ETag")
	f.installed.Store(snap.Version)
	f.metrics.installedVersion.Set(int64(snap.Version))
	f.metrics.versionLag.Set(0)
	f.metrics.installs.Inc()
	f.log.Info("snapshot installed",
		"version", snap.Version, "bytes", len(data), "model", snap.Model.Name())
	return nil
}

// observeLag refreshes the version-lag gauge from the publisher's
// version header, when present.
func (f *Follower) observeLag(resp *http.Response) {
	v, err := strconv.ParseUint(resp.Header.Get("X-Snapshot-Version"), 10, 64)
	if err != nil {
		return
	}
	if inst := f.installed.Load(); v > inst {
		f.metrics.versionLag.Set(int64(v - inst))
	} else {
		f.metrics.versionLag.Set(0)
	}
}

// Run polls until ctx is cancelled. With Wait configured, each poll
// long-polls the publisher, so new versions install in one round trip;
// the poll interval then only paces retries and keep-alives.
func (f *Follower) Run(ctx context.Context) {
	interval := f.cfg.poll()
	for {
		if err := f.Poll(ctx); err != nil && ctx.Err() != nil {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}
