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
	_ Headliner = (*Figure3)(nil)
	_ Headliner = (*SpaceTable)(nil)
	_ Headliner = (*Figure4)(nil)
	_ Headliner = (*Figure5)(nil)
	_ Headliner = (*Ablation)(nil)
	_ Headliner = (*Baselines)(nil)
	_ Headliner = (*Maintenance)(nil)
	_ Headliner = (*MaintenanceCost)(nil)
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

// Headline reports the largest training window's hit ratio and latency
// reduction for PB-PPM (the §4.2 claims).
func (f *Figure3) Headline() map[string]float64 {
	if len(f.Rows) == 0 {
		return nil
	}
	last := len(f.Rows) - 1
	return map[string]float64{
		"hit_ratio_pb":         f.HitRatio(last, ModelPB),
		"hit_ratio_none":       f.HitRatio(last, ModelNone),
		"latency_reduction_pb": f.LatencyReduction(last, ModelPB),
	}
}

// Headline reports the largest training window's node counts (Tables
// 1–2, the storage claim).
func (t *SpaceTable) Headline() map[string]float64 {
	if len(t.Rows) == 0 {
		return nil
	}
	r := t.Rows[len(t.Rows)-1]
	return map[string]float64{
		"nodes_ppm": float64(r.Results[ModelPPM].Nodes),
		"nodes_lrs": float64(r.Results[ModelLRS].Nodes),
		"nodes_pb":  float64(r.Results[ModelPB].Nodes),
	}
}

// Headline reports the space-reduction factor and PB-PPM's traffic
// increment at the largest training window (the Figure 4 claims).
func (f *Figure4) Headline() map[string]float64 {
	if len(f.Rows) == 0 {
		return nil
	}
	last := len(f.Rows) - 1
	return map[string]float64{
		"lrs_over_pb_nodes":   f.NodeRatio(last),
		"traffic_increase_pb": f.TrafficIncrease(last, ModelPB),
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

// Headline reports PB-PPM against the context-free Top-10 pusher.
func (b *Baselines) Headline() map[string]float64 {
	base := b.Result(ModelNone)
	pb := b.Result(ModelPB)
	return map[string]float64{
		"hit_ratio_pb":         pb.HitRatio(),
		"hit_ratio_top10":      b.Result(ModelTop10).HitRatio(),
		"latency_reduction_pb": pb.LatencyReductionVs(base),
		"traffic_increase_pb":  pb.TrafficIncrease(),
	}
}

// Headline reports the final evaluation day's static-vs-daily hit
// ratios (the maintenance claim).
func (m *Maintenance) Headline() map[string]float64 {
	if len(m.Days) == 0 {
		return nil
	}
	last := len(m.Days) - 1
	return map[string]float64{
		"hit_ratio_static": m.Static[last].HitRatio(),
		"hit_ratio_daily":  m.Daily[last].HitRatio(),
		"nodes_daily":      float64(m.Daily[last].Nodes),
	}
}

// Headline reports the final evaluation day's replay quality for the
// two maintenance paths — the "equal headline metrics" half of the
// incremental-maintenance claim. The wall-time columns are excluded on
// purpose: update cost varies with the machine and would flap a
// regression gate.
func (m *MaintenanceCost) Headline() map[string]float64 {
	if len(m.Days) == 0 {
		return nil
	}
	last := len(m.Days) - 1
	return map[string]float64{
		"hit_ratio_delta":   m.Delta[last].HitRatio(),
		"hit_ratio_rebuild": m.Rebuilt[last].HitRatio(),
		"nodes_rebuild":     float64(m.Rebuilt[last].Nodes),
	}
}
