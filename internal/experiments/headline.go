package experiments

// Headliner is implemented by every experiment artifact: Headline
// returns the few numbers that summarize the artifact — the values a
// benchmark regression gate should guard. Keys are stable identifiers
// (model suffixes, not display names) because baseline artifacts are
// compared across commits.
type Headliner interface {
	Headline() map[string]float64
}

var (
	_ Headliner = (*Figure2)(nil)
	_ Headliner = (*Evaluation)(nil)
	_ Headliner = (*Figure5)(nil)
	_ Headliner = (*Ablation)(nil)
	_ Headliner = (*Maintenance)(nil)
)

// Headline reports the largest training window's popular share and
// path utilization for PB-PPM versus LRS (the §3.3/§3.4 claims).
func (f *Figure2) Headline() map[string]float64 {
	if len(f.Rows) == 0 {
		return nil
	}
	r := f.Rows[len(f.Rows)-1]
	return map[string]float64{
		"popular_share_pb":  r.Results[ModelPB].PopularShareOfPrefetchHits(),
		"popular_share_lrs": r.Results[ModelLRS].PopularShareOfPrefetchHits(),
		"utilization_pb":    r.Results[ModelPB].Utilization,
		"utilization_lrs":   r.Results[ModelLRS].Utilization,
	}
}

// Headline reports the largest training window's §4 claims: PB-PPM's
// hit ratio and latency reduction (Figure 3), the three node counts
// (Tables 1–2, the storage claim), and the space-reduction factor and
// PB-PPM's traffic increment (Figure 4); and Top-10's hit ratio, the
// related-work baseline PB-PPM must beat.
func (e *Evaluation) Headline() map[string]float64 {
	if len(e.Rows) == 0 {
		return nil
	}
	last := len(e.Rows) - 1
	return map[string]float64{
		"hit_ratio_pb":         e.HitRatio(last, ModelPB),
		"hit_ratio_none":       e.HitRatio(last, ModelNone),
		"latency_reduction_pb": e.LatencyReduction(last, ModelPB),
		"nodes_ppm":            float64(e.Nodes(last, ModelPPM)),
		"nodes_lrs":            float64(e.Nodes(last, ModelLRS)),
		"nodes_pb":             float64(e.Nodes(last, ModelPB)),
		"lrs_over_pb_nodes":    e.NodeRatio(last),
		"traffic_increase_pb":  e.TrafficIncrease(last, ModelPB),
		"hit_ratio_top10":      e.HitRatio(last, ModelTop10),
	}
}

// Headline reports the largest client population's hit ratio and
// traffic increment for PB-PPM-10KB (the §5 proxy claims).
func (f *Figure5) Headline() map[string]float64 {
	if len(f.Results) == 0 {
		return nil
	}
	r := f.Results[len(f.Results)-1]
	return map[string]float64{
		"hit_ratio_pb10":         r[ModelPB10KB].HitRatio(),
		"traffic_increase_pb10":  r[ModelPB10KB].TrafficIncrease(),
		"proxy_prefetch_hits_pb": float64(r[ModelPB10KB].ProxyPrefetchHits),
	}
}

// Headline reports the best hit ratio across the ablation's variants
// and the smallest model that achieved a hit.
func (a *Ablation) Headline() map[string]float64 {
	if len(a.Rows) == 0 {
		return nil
	}
	best := a.Rows[0]
	for _, r := range a.Rows[1:] {
		if r.Result.HitRatio() > best.Result.HitRatio() {
			best = r
		}
	}
	return map[string]float64{
		"best_hit_ratio": best.Result.HitRatio(),
		"best_nodes":     float64(best.Result.Nodes),
	}
}

// Headline reports the final evaluation day's replay quality: the
// static-vs-daily hit ratios (the maintenance claim), and the delta
// merge against the rebuild (the "equal headline metrics" half of the
// incremental-maintenance claim). The rebuild keys repeat the daily
// ones, the same model under the cost table's names. The wall-time
// columns are excluded on purpose: update cost varies with the machine
// and would flap a regression gate.
func (m *Maintenance) Headline() map[string]float64 {
	if len(m.Days) == 0 {
		return nil
	}
	last := len(m.Days) - 1
	daily := m.Daily[last]
	h := map[string]float64{
		"hit_ratio_static":  m.Static[last].HitRatio(),
		"hit_ratio_daily":   daily.HitRatio(),
		"nodes_daily":       float64(daily.Nodes),
		"hit_ratio_rebuild": daily.HitRatio(),
		"nodes_rebuild":     float64(daily.Nodes),
	}
	if n := len(m.Delta); n > 0 {
		h["hit_ratio_delta"] = m.Delta[n-1].HitRatio()
	}
	return h
}
