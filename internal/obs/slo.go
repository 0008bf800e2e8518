package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Objective is one declarative service-level objective: over a rolling
// window, at least Target of the SLI's events must be good. Two SLI
// shapes exist: latency objectives (Kind "latency"), where an event is
// good when it completes within Threshold, and quality objectives
// (any other bound kind, e.g. "precision" or "hit_ratio"), where the
// SLI source itself defines good/total (prefetch hits over prefetched
// documents, hits over requests).
type Objective struct {
	// Name labels the objective in /debug/slo and the pbppm_slo_*
	// metrics; empty defaults to Kind.
	Name string
	// Kind selects the SLI source bound to the engine ("latency",
	// "precision", "hit_ratio", ...).
	Kind string
	// Threshold is the good/bad latency cut for latency objectives;
	// ignored by quality kinds.
	Threshold time.Duration
	// Target is the required good fraction, in (0, 1).
	Target float64
	// Window overrides the engine's short burn-rate window for this
	// objective only; zero keeps the engine default. It must not exceed
	// the engine's long window (the SLI rings only cover that much).
	Window time.Duration
}

func (o Objective) name() string {
	if o.Name != "" {
		return o.Name
	}
	return o.Kind
}

// ParseObjectives parses the flag/file objective grammar: objectives
// separated by ';' (or newlines, for files), each a comma-separated
// list of key=value fields:
//
//	name=demand-latency,kind=latency,threshold=200ms,target=0.99
//	kind=precision,target=0.3,window=10m
//
// Lines starting with '#' and empty elements are skipped, so the same
// grammar works inline on a flag and as a config file. The optional
// window field overrides the engine's short burn-rate window for that
// objective. Objective names (explicit or defaulted from the kind)
// must be unique: two objectives rendering under one pbppm_slo_* label
// would collide at registration, so the duplicate is rejected here
// with a readable error instead.
func ParseObjectives(s string) ([]Objective, error) {
	var out []Objective
	seen := make(map[string]bool)
	split := func(r rune) bool { return r == ';' || r == '\n' }
	for _, raw := range strings.FieldsFunc(s, split) {
		raw = strings.TrimSpace(raw)
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		var o Objective
		for _, field := range strings.Split(raw, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			k, v, found := strings.Cut(field, "=")
			if !found {
				return nil, fmt.Errorf("obs: objective %q: field %q is not key=value", raw, field)
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			switch k {
			case "name":
				o.Name = v
			case "kind":
				o.Kind = v
			case "threshold":
				d, err := time.ParseDuration(v)
				if err != nil {
					return nil, fmt.Errorf("obs: objective %q: bad threshold: %v", raw, err)
				}
				o.Threshold = d
			case "target":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("obs: objective %q: bad target: %v", raw, err)
				}
				o.Target = f
			case "window":
				d, err := time.ParseDuration(v)
				if err != nil {
					return nil, fmt.Errorf("obs: objective %q: bad window: %v", raw, err)
				}
				if d <= 0 {
					return nil, fmt.Errorf("obs: objective %q: window %v must be positive", raw, d)
				}
				o.Window = d
			default:
				return nil, fmt.Errorf("obs: objective %q: unknown field %q", raw, k)
			}
		}
		if o.Kind == "" {
			return nil, fmt.Errorf("obs: objective %q: missing kind", raw)
		}
		if !(o.Target > 0 && o.Target < 1) { // rejects NaN too
			return nil, fmt.Errorf("obs: objective %q: target %v outside (0, 1)", raw, o.Target)
		}
		if o.Kind == "latency" && o.Threshold <= 0 {
			return nil, fmt.Errorf("obs: objective %q: latency objective needs a threshold", raw)
		}
		if seen[o.name()] {
			return nil, fmt.Errorf("obs: objective %q: duplicate objective name %q", raw, o.name())
		}
		seen[o.name()] = true
		out = append(out, o)
	}
	return out, nil
}

// SLIFunc reports the good and total event counts of one SLI over the
// trailing span; threshold is the latency cut for latency SLIs and
// ignored otherwise. Implementations read rolling windows and must be
// safe for concurrent use.
type SLIFunc func(threshold, span time.Duration) (good, total float64)

// SLO engine states, ordered by severity.
const (
	SLOStateNoData   = "no_data"
	SLOStateOK       = "ok"
	SLOStateBurning  = "burning"
	SLOStateCritical = "critical"
)

// sloStateValue maps states onto the pbppm_slo_state gauge.
func sloStateValue(state string) float64 {
	switch state {
	case SLOStateOK:
		return 0
	case SLOStateBurning:
		return 1
	case SLOStateCritical:
		return 2
	default: // no_data
		return -1
	}
}

// WindowStatus is one rolling window's view of an objective.
type WindowStatus struct {
	// Span is the window length, e.g. "5m0s".
	Span string `json:"span"`
	// Good and Total are the SLI's event counts over the window.
	Good  float64 `json:"good"`
	Total float64 `json:"total"`
	// Compliance is good/total, 1 with no events.
	Compliance float64 `json:"compliance"`
	// BurnRate is (1-compliance)/(1-target): 1 means the error budget
	// burns exactly as fast as the objective allows, above 1 the
	// budget is being consumed faster than sustainable.
	BurnRate float64 `json:"burn_rate"`
}

// ObjectiveStatus is one objective's multi-window evaluation.
type ObjectiveStatus struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	Threshold string  `json:"threshold,omitempty"`
	Target    float64 `json:"target"`
	// State summarizes the burn rates: "ok", "burning" (the short
	// window is over budget), "critical" (both windows are burning,
	// the short one at twice budget or worse), or "no_data".
	State   string         `json:"state"`
	Windows []WindowStatus `json:"windows"`
}

// SLOReport is the /debug/slo payload.
type SLOReport struct {
	GeneratedAt time.Time         `json:"generated_at"`
	Objectives  []ObjectiveStatus `json:"objectives"`
	// Annotations are recent model-publish markers (delta merges,
	// compactions), so quality dips in the objectives above can be
	// attributed to model swaps.
	Annotations []Annotation `json:"annotations,omitempty"`
}

// SLOEngine evaluates declarative objectives over two rolling windows
// (multi-window burn rate, SRE style): the short window answers "are
// we burning budget right now", the long window filters blips. Bind
// attaches SLI sources by kind; Evaluate and the HTTP handler may run
// concurrently with traffic.
type SLOEngine struct {
	objectives []Objective
	short      time.Duration
	long       time.Duration
	clock      func() time.Time

	mu      sync.Mutex
	sources map[string]SLIFunc
	ann     *Annotations
}

// NewSLOEngine returns an engine over the objectives with the default
// 5-minute short and 1-hour long windows.
func NewSLOEngine(objectives []Objective) *SLOEngine {
	return &SLOEngine{
		objectives: append([]Objective(nil), objectives...),
		short:      5 * time.Minute,
		long:       time.Hour,
		clock:      time.Now,
	}
}

// SetClock injects a fake clock for tests.
func (e *SLOEngine) SetClock(clock func() time.Time) { e.clock = clock }

// Bind attaches the SLI source for a kind, replacing any previous one.
func (e *SLOEngine) Bind(kind string, fn SLIFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sources == nil {
		e.sources = make(map[string]SLIFunc)
	}
	e.sources[kind] = fn
}

// SetAnnotations attaches the publish-annotation ring included in
// /debug/slo reports.
func (e *SLOEngine) SetAnnotations(a *Annotations) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ann = a
}

// Objectives returns a copy of the configured objectives.
func (e *SLOEngine) Objectives() []Objective {
	return append([]Objective(nil), e.objectives...)
}

func (e *SLOEngine) source(kind string) SLIFunc {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sources[kind]
}

// windowsFor returns the short and long evaluation spans for an
// objective: the objective's own window (clamped to the long window)
// when set, else the engine's short window.
func (e *SLOEngine) windowsFor(o Objective) (short, long time.Duration) {
	short, long = e.short, e.long
	if o.Window > 0 {
		short = o.Window
		if short > long {
			short = long
		}
	}
	return short, long
}

// evaluateObjective computes one objective's window statuses and state.
func (e *SLOEngine) evaluateObjective(o Objective) ObjectiveStatus {
	st := ObjectiveStatus{
		Name:   o.name(),
		Kind:   o.Kind,
		Target: o.Target,
		State:  SLOStateNoData,
	}
	if o.Threshold > 0 {
		st.Threshold = o.Threshold.String()
	}
	src := e.source(o.Kind)
	if src == nil {
		return st
	}
	short, long := e.windowsFor(o)
	var burns []float64
	hasData := false
	for _, span := range []time.Duration{short, long} {
		good, total := src(o.Threshold, span)
		ws := WindowStatus{Span: span.String(), Good: good, Total: total, Compliance: 1}
		if total > 0 {
			hasData = true
			ws.Compliance = good / total
		}
		if ws.Compliance < 1 {
			ws.BurnRate = (1 - ws.Compliance) / (1 - o.Target)
		}
		burns = append(burns, ws.BurnRate)
		st.Windows = append(st.Windows, ws)
	}
	if !hasData {
		return st
	}
	shortBurn, longBurn := burns[0], burns[1]
	switch {
	case shortBurn >= 2 && longBurn >= 1:
		st.State = SLOStateCritical
	case shortBurn > 1:
		st.State = SLOStateBurning
	default:
		st.State = SLOStateOK
	}
	return st
}

// Evaluate computes every objective's current status.
func (e *SLOEngine) Evaluate() SLOReport {
	rep := SLOReport{GeneratedAt: e.clock()}
	for _, o := range e.objectives {
		rep.Objectives = append(rep.Objectives, e.evaluateObjective(o))
	}
	e.mu.Lock()
	ann := e.ann
	e.mu.Unlock()
	if ann != nil {
		rep.Annotations = ann.Recent()
	}
	return rep
}

// Register exports the engine as pbppm_slo_* metrics, all computed at
// scrape time: per objective and window, pbppm_slo_compliance and
// pbppm_slo_burn_rate; per objective, pbppm_slo_state (0 ok, 1
// burning, 2 critical, -1 no data).
func (e *SLOEngine) Register(reg *Registry) {
	if reg == nil {
		return
	}
	for _, o := range e.objectives {
		o := o
		short, long := e.windowsFor(o)
		for wi, span := range []time.Duration{short, long} {
			wi := wi
			labels := []Label{
				{Name: "objective", Value: o.name()},
				{Name: "window", Value: span.String()},
			}
			reg.GaugeFunc("pbppm_slo_compliance",
				"Good-event fraction of each objective over its rolling windows.",
				func() float64 { return e.evaluateObjective(o).Windows[wi].Compliance },
				labels...)
			reg.GaugeFunc("pbppm_slo_burn_rate",
				"Error-budget burn rate of each objective over its rolling windows; 1 burns exactly the budget.",
				func() float64 { return e.evaluateObjective(o).Windows[wi].BurnRate },
				labels...)
		}
		reg.GaugeFunc("pbppm_slo_state",
			"Objective state: 0 ok, 1 burning, 2 critical, -1 no data.",
			func() float64 { return sloStateValue(e.evaluateObjective(o).State) },
			Label{Name: "objective", Value: o.name()})
	}
}

// Handler serves the /debug/slo JSON report.
func (e *SLOEngine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := e.Evaluate()
		// Stable objective order for diffable output.
		sort.SliceStable(rep.Objectives, func(i, j int) bool {
			return rep.Objectives[i].Name < rep.Objectives[j].Name
		})
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep) //nolint:errcheck // client disconnects are not server errors
	})
}
