package pbppm

import (
	"io"

	"pbppm/internal/analysis"
	"pbppm/internal/cache"
	"pbppm/internal/core"
	"pbppm/internal/experiments"
	"pbppm/internal/latency"
	"pbppm/internal/lrs"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/metrics"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
	"pbppm/internal/proxy"
	"pbppm/internal/server"
	"pbppm/internal/session"
	"pbppm/internal/sim"
	"pbppm/internal/topn"
	"pbppm/internal/trace"
	"pbppm/internal/tracegen"
)

// ----- Prediction models -----

// Predictor is the interface shared by all three prefetching models.
type Predictor = markov.Predictor

// Prediction is one prefetch candidate.
type Prediction = markov.Prediction

// UtilizationReporter is implemented by models that report the
// fraction of stored paths used by predictions (Figure 2, right).
type UtilizationReporter = markov.UtilizationReporter

// BufferedPredictor is implemented by models whose Predict can write
// into a caller-supplied buffer, making repeated prediction
// allocation-free. See the interface's buffer-ownership contract.
type BufferedPredictor = markov.BufferedPredictor

// Freezer is implemented by models that can produce an immutable
// arena-backed snapshot of themselves for allocation- and GC-free
// serving. HTTPServer.SetPredictor and the Maintainer install a
// Freezer's snapshot, never the live model.
type Freezer = markov.Freezer

// FrozenModel is the immutable arena-backed snapshot every Freezer
// freezes to, and the model a snapshot image (EncodeSnapshot) carries.
type FrozenModel = markov.FrozenTree

// Arena is the flat, relocatable single-buffer representation of a
// frozen prediction tree.
type Arena = markov.Arena

// PredictInto routes a prediction through p's BufferedPredictor fast
// path when available and falls back to copying Predict's result into
// buf otherwise. The returned slice follows the BufferedPredictor
// buffer-ownership contract.
func PredictInto(p Predictor, context []string, buf []Prediction) []Prediction {
	return markov.PredictInto(p, context, buf)
}

// Aliases to the concrete model types so callers can hold them
// directly and reach model-specific methods (Optimize, Patterns, ...).
type (
	// PPMModel is the standard fixed/unbounded-height PPM model (§3.2).
	PPMModel = ppm.Model
	// LRSModel is the Longest-Repeating-Subsequences model.
	LRSModel = lrs.Model
	// PopularityPPM is the paper's popularity-based PPM model.
	PopularityPPM = core.Model

	// PPMConfig configures the standard model.
	PPMConfig = ppm.Config
	// LRSConfig configures the LRS model.
	LRSConfig = lrs.Config
	// PopularityPPMConfig configures the popularity-based model.
	PopularityPPMConfig = core.Config
)

// NewStandardPPM returns an empty standard PPM model. A Height of 0
// builds the unbounded variant the paper uses as an accuracy upper
// bound; Height 3 reproduces "3-PPM".
func NewStandardPPM(cfg PPMConfig) *PPMModel { return ppm.New(cfg) }

// NewLRS returns an empty Longest-Repeating-Subsequences model.
func NewLRS(cfg LRSConfig) *LRSModel { return lrs.New(cfg) }

// NewPopularityPPM returns an empty popularity-based PPM model grading
// URLs with grades (typically a *Ranking built from training data).
func NewPopularityPPM(grades Grader, cfg PopularityPPMConfig) *PopularityPPM {
	return core.New(grades, cfg)
}

// TopNModel is the context-free Top-10 baseline from the paper's
// related work (server-initiated popularity pushing).
type TopNModel = topn.Model

// NewTopN returns an empty Top-10 popularity-pushing baseline.
func NewTopN() *TopNModel { return topn.New() }

// Snapshot is a decoded snapshot image: the frozen model, the
// popularity ranking it was built from (nil when none was written), and
// the publisher's version counter.
type Snapshot = maintain.Snapshot

// EncodeSnapshot writes a frozen model and its ranking (nil for none)
// as a pbppmSN2 snapshot image, the one model file format: what
// prefetchsim -save-model writes, the /snapshot endpoint serves, and
// followers install. Freeze a trained model first (Freezer).
func EncodeSnapshot(w io.Writer, version uint64, model *FrozenModel, rank *Ranking) error {
	return maintain.EncodeSnapshot(w, version, model, rank)
}

// DecodeSnapshot validates a snapshot image end to end and revives its
// frozen model and ranking.
func DecodeSnapshot(data []byte) (*Snapshot, error) { return maintain.DecodeSnapshot(data) }

// DecodeRanking restores a ranking persisted with (*Ranking).Encode.
func DecodeRanking(r io.Reader) (*Ranking, error) { return popularity.DecodeRanking(r) }

// DefaultThreshold is the paper's 0.25 prediction probability threshold.
const DefaultThreshold = ppm.DefaultThreshold

// DefaultHeights is the paper's grade→height mapping for PB-PPM.
var DefaultHeights = core.DefaultHeights

// ----- Popularity -----

type (
	// Ranking accumulates access counts and derives relative
	// popularity and grades (§3.1).
	Ranking = popularity.Ranking
	// Grade is a popularity grade, 0 (least popular) to 3.
	Grade = popularity.Grade
	// Grader supplies grades to the popularity-based model.
	Grader = popularity.Grader
	// FixedGrades is a literal-map Grader for tests and examples.
	FixedGrades = popularity.FixedGrades
)

// MaxGrade is the highest popularity grade.
const MaxGrade = popularity.MaxGrade

// NewRanking returns an empty ranking with the paper's log10 scale.
func NewRanking() *Ranking { return popularity.NewRanking() }

// ----- Traces and sessions -----

type (
	// Record is one access-log line.
	Record = trace.Record
	// Trace is an ordered access log with day-window support.
	Trace = trace.Trace
	// Session is one client's continuous page-view run.
	Session = session.Session
	// PageView is one click (a page plus folded embedded objects).
	PageView = session.PageView
	// SessionConfig controls sessionization.
	SessionConfig = session.Config
	// ClientClass distinguishes proxies from browsers.
	ClientClass = session.ClientClass
)

// Client classes from the paper's >100-requests/day heuristic.
const (
	Browser = session.Browser
	Proxy   = session.Proxy
)

// ReadCLF parses a Common Log Format stream, skipping corrupt lines.
func ReadCLF(r io.Reader) (*Trace, int, error) { return trace.ReadCLF(r) }

// WriteCLF writes a trace in Common Log Format.
func WriteCLF(w io.Writer, t *Trace) error { return trace.WriteCLF(w, t) }

// Sessionize splits a trace into per-client access sessions with the
// paper's 30-minute idle rule and 10-second embedded-image folding.
func Sessionize(t *Trace, cfg SessionConfig) []Session {
	return session.Sessionize(t, cfg)
}

// ClassifyClients applies the paper's proxy-detection heuristic;
// threshold <= 0 selects the default of 100 requests per day.
func ClassifyClients(t *Trace, threshold int) map[string]ClientClass {
	return session.ClassifyClients(t, threshold)
}

// ----- Synthetic workload generation -----

type (
	// Profile parameterizes the synthetic trace generator.
	Profile = tracegen.Profile
	// Site is the generated synthetic server content.
	Site = tracegen.Site
)

// NASAProfile returns the workload standing in for the NASA-KSC trace.
func NASAProfile() Profile { return tracegen.NASA() }

// UCBCSProfile returns the workload standing in for the UCB-CS trace.
func UCBCSProfile() Profile { return tracegen.UCBCS() }

// GenerateTrace produces the deterministic synthetic trace for a profile.
func GenerateTrace(p Profile) (*Trace, error) { return tracegen.Generate(p) }

// ----- Simulation -----

type (
	// SimOptions configures a simulation run.
	SimOptions = sim.Options
	// NamedRun pairs sim options with a display name.
	NamedRun = sim.NamedRun
	// Result carries the §2.3 metrics of one run.
	Result = metrics.Result
	// LatencyModel is a fitted linear latency model.
	LatencyModel = latency.Model
	// LatencyPath bundles the per-hop latency models.
	LatencyPath = latency.Path
	// LatencySample is one measured (size, latency) observation.
	LatencySample = latency.Sample
)

// Prefetch size thresholds from §4.1 of the paper.
const (
	DefaultMaxPrefetchBytes = sim.DefaultMaxPrefetchBytes
	PBMaxPrefetchBytes      = sim.PBMaxPrefetchBytes
)

// Cache capacities from §2.2 of the paper.
const (
	DefaultBrowserCacheBytes = cache.DefaultBrowserCapacity
	DefaultProxyCacheBytes   = cache.DefaultProxyCapacity
)

// Train folds training sessions into a predictor and applies its space
// optimization if it has one.
func Train(p Predictor, train []Session) int { return sim.Train(p, train) }

// RunSimulation replays test sessions against the configured topology.
func RunSimulation(test []Session, opt SimOptions) Result {
	return sim.Run(test, opt)
}

// CompareModels trains each run's predictor and evaluates it plus the
// no-prefetch baseline on the test sessions.
func CompareModels(train, test []Session, runs []NamedRun) []Result {
	return sim.Compare(train, test, runs)
}

// BuildSizeTable returns the per-URL transfer sizes observed in the
// given session sets.
func BuildSizeTable(sets ...[]Session) map[string]int64 {
	return sim.BuildSizeTable(sets...)
}

// FitLatency fits latency = a + b*size by least squares (§4.2).
func FitLatency(samples []latency.Sample) (LatencyModel, error) {
	return latency.Fit(samples)
}

// ----- Experiments -----

type (
	// Workload is a prepared trace for the experiment harness.
	Workload = experiments.Workload
	// SweepConfig controls the shared day sweep.
	SweepConfig = experiments.SweepConfig
	// DayResult is one sweep row.
	DayResult = experiments.DayResult
)

// NASAWorkload and UCBWorkload prepare the two paper workloads.
func NASAWorkload() (*Workload, error) { return experiments.NASAWorkload() }

// UCBWorkload prepares the UCB-CS-like workload.
func UCBWorkload() (*Workload, error) { return experiments.UCBWorkload() }

// WorkloadFromProfile generates and prepares a custom workload.
func WorkloadFromProfile(p Profile) (*Workload, error) {
	return experiments.FromProfile(p)
}

// ----- Deployable HTTP prefetching (internal/server, internal/maintain) -----

type (
	// HTTPServer is a deployable prefetching Web server: it serves a
	// ContentStore and attaches X-Prefetch hints computed by its
	// prediction model.
	HTTPServer = server.Server
	// HTTPServerConfig parameterizes the server.
	HTTPServerConfig = server.Config
	// HTTPClient is a cooperating prefetching client with a browser
	// cache that follows the server's hints.
	HTTPClient = server.Client
	// HTTPClientConfig parameterizes the client.
	HTTPClientConfig = server.ClientConfig
	// ContentStore resolves URLs to documents.
	ContentStore = server.ContentStore
	// Document is one servable resource.
	Document = server.Document
	// MapStore is a map-backed ContentStore.
	MapStore = server.MapStore

	// Maintainer periodically rebuilds the prediction model from a
	// sliding window of observed sessions.
	Maintainer = maintain.Maintainer
	// MaintainerConfig parameterizes a Maintainer.
	MaintainerConfig = maintain.Config
	// ModelFactory builds a fresh predictor from a popularity ranking.
	ModelFactory = maintain.Factory
)

// Hint-protocol header names.
const (
	HeaderClientID      = server.HeaderClientID
	HeaderPrefetch      = server.HeaderPrefetch
	HeaderPrefetchFetch = server.HeaderPrefetchFetch
)

// NewHTTPServer returns a prefetching server over store.
func NewHTTPServer(store ContentStore, cfg HTTPServerConfig) *HTTPServer {
	return server.New(store, cfg)
}

// NewHTTPClient returns a cooperating prefetching client.
func NewHTTPClient(cfg HTTPClientConfig) (*HTTPClient, error) {
	return server.NewClient(cfg)
}

// NewMaintainer returns a model-maintenance loop.
func NewMaintainer(cfg MaintainerConfig) (*Maintainer, error) {
	return maintain.New(cfg)
}

// ----- Caches -----

type (
	// CachePolicyKind selects the replacement policy in SimOptions.
	CachePolicyKind = sim.CachePolicy
	// Cache is the replacement-policy interface both LRU and GDSF
	// implement.
	Cache = cache.Policy
	// LRUCache is the paper's replacement policy.
	LRUCache = cache.LRU
	// GDSFCache is popularity-aware GreedyDual-Size-Frequency caching.
	GDSFCache = cache.GDSF
)

// Replacement policies for SimOptions.CachePolicy.
const (
	PolicyLRU  = sim.PolicyLRU
	PolicyGDSF = sim.PolicyGDSF
)

// NewLRUCache returns an LRU cache with the given byte capacity.
func NewLRUCache(capacity int64) *LRUCache { return cache.NewLRU(capacity) }

// NewGDSFCache returns a GDSF cache with the given byte capacity.
func NewGDSFCache(capacity int64) *GDSFCache { return cache.NewGDSF(capacity) }

// ----- HTTP proxy tier (internal/proxy) -----

type (
	// HTTPProxy is a deployable prefetching proxy cache that absorbs
	// the origin server's hints (the §5 topology).
	HTTPProxy = proxy.Proxy
	// HTTPProxyConfig parameterizes the proxy.
	HTTPProxyConfig = proxy.Config
	// HTTPProxyStats is a snapshot of proxy counters.
	HTTPProxyStats = proxy.Stats
)

// NewHTTPProxy returns a prefetching proxy in front of cfg.Origin.
func NewHTTPProxy(cfg HTTPProxyConfig) (*HTTPProxy, error) { return proxy.New(cfg) }

// ----- Trace analysis (internal/analysis) -----

type (
	// RegularityReport quantifies the paper's three surfing
	// regularities over a session set.
	RegularityReport = analysis.RegularityReport
	// LengthDistribution summarizes session lengths.
	LengthDistribution = analysis.LengthDistribution
)

// MeasureRegularities computes the regularity report and the realized
// popularity ranking of a session set.
func MeasureRegularities(sessions []Session) (RegularityReport, *Ranking) {
	return analysis.MeasureRegularities(sessions)
}

// MeasureLengths computes the session-length distribution.
func MeasureLengths(sessions []Session) LengthDistribution {
	return analysis.MeasureLengths(sessions)
}

// TransitionMatrix counts grade-to-grade click transitions.
func TransitionMatrix(sessions []Session, rank *Ranking) [4][4]int64 {
	return analysis.TransitionMatrix(sessions, rank)
}

// ZipfFit estimates the Zipf exponent of a popularity distribution.
func ZipfFit(rank *Ranking) (alpha, r2 float64, err error) {
	return analysis.ZipfFit(rank)
}
