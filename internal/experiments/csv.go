package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSVWriter is implemented by every experiment artifact so results can
// be exported for external plotting tools.
type CSVWriter interface {
	WriteCSV(w io.Writer) error
}

var (
	_ CSVWriter = (*Figure2)(nil)
	_ CSVWriter = (*Figure3)(nil)
	_ CSVWriter = (*SpaceTable)(nil)
	_ CSVWriter = (*Figure4)(nil)
	_ CSVWriter = (*Figure5)(nil)
	_ CSVWriter = (*Ablation)(nil)
	_ CSVWriter = (*Baselines)(nil)
	_ CSVWriter = (*Maintenance)(nil)
	_ CSVWriter = (*MaintenanceCost)(nil)
)

func writeAll(w io.Writer, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.WriteAll(rows); err != nil {
		return fmt.Errorf("experiments: writing csv: %w", err)
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// WriteCSV emits days,model,popular_share,utilization rows.
func (fig *Figure2) WriteCSV(w io.Writer) error {
	rows := [][]string{{"days", "model", "popular_share", "utilization"}}
	for _, r := range fig.Rows {
		for _, m := range fig.Models() {
			res := r.Results[m]
			rows = append(rows, []string{
				strconv.Itoa(r.TrainDays), m,
				f(res.PopularShareOfPrefetchHits()), f(res.Utilization),
			})
		}
	}
	return writeAll(w, rows)
}

// WriteCSV emits days,model,hit_ratio,latency_reduction rows.
func (fig *Figure3) WriteCSV(w io.Writer) error {
	rows := [][]string{{"days", "model", "hit_ratio", "latency_reduction"}}
	for i, r := range fig.Rows {
		for _, m := range []string{ModelNone, ModelPPM, ModelLRS, ModelPB} {
			rows = append(rows, []string{
				strconv.Itoa(r.TrainDays), m,
				f(fig.HitRatio(i, m)), f(fig.LatencyReduction(i, m)),
			})
		}
	}
	return writeAll(w, rows)
}

// WriteCSV emits days,model,nodes rows.
func (t *SpaceTable) WriteCSV(w io.Writer) error {
	rows := [][]string{{"days", "model", "nodes"}}
	for _, r := range t.Rows {
		for _, m := range []string{ModelPPM, ModelLRS, ModelPB} {
			rows = append(rows, []string{
				strconv.Itoa(r.TrainDays), m, strconv.Itoa(r.Results[m].Nodes),
			})
		}
	}
	return writeAll(w, rows)
}

// WriteCSV emits days,model,nodes,traffic_increase rows.
func (fig *Figure4) WriteCSV(w io.Writer) error {
	rows := [][]string{{"days", "model", "nodes", "traffic_increase"}}
	for i, r := range fig.Rows {
		for _, m := range []string{ModelPPM, ModelLRS, ModelPB} {
			rows = append(rows, []string{
				strconv.Itoa(r.TrainDays), m,
				strconv.Itoa(r.Results[m].Nodes), f(fig.TrafficIncrease(i, m)),
			})
		}
	}
	return writeAll(w, rows)
}

// WriteCSV emits clients,model,hit_ratio,traffic_increase rows.
func (fig *Figure5) WriteCSV(w io.Writer) error {
	rows := [][]string{{"clients", "model", "hit_ratio", "traffic_increase"}}
	for i, n := range fig.ClientCounts {
		for _, m := range fig.Models() {
			res := fig.Results[i][m]
			rows = append(rows, []string{
				strconv.Itoa(n), m, f(res.HitRatio()), f(res.TrafficIncrease()),
			})
		}
	}
	return writeAll(w, rows)
}

// WriteCSV emits variant,hit_ratio,latency_reduction,traffic_increase,nodes rows.
func (a *Ablation) WriteCSV(w io.Writer) error {
	rows := [][]string{{"variant", "hit_ratio", "latency_reduction", "traffic_increase", "nodes"}}
	for _, r := range a.Rows {
		rows = append(rows, []string{
			r.Label, f(r.Result.HitRatio()), f(r.LatencyReduction),
			f(r.Result.TrafficIncrease()), strconv.Itoa(r.Result.Nodes),
		})
	}
	return writeAll(w, rows)
}

// WriteCSV emits model,hit_ratio,traffic_increase,nodes rows.
func (b *Baselines) WriteCSV(w io.Writer) error {
	rows := [][]string{{"model", "hit_ratio", "traffic_increase", "nodes"}}
	for _, r := range b.Results {
		rows = append(rows, []string{
			r.Model, f(r.HitRatio()), f(r.TrafficIncrease()), strconv.Itoa(r.Nodes),
		})
	}
	return writeAll(w, rows)
}

// WriteCSV emits per-day update costs and replay quality for the two
// maintenance paths.
func (m *MaintenanceCost) WriteCSV(w io.Writer) error {
	rows := [][]string{{"day", "delta_seconds", "rebuild_seconds", "delta_hit", "rebuild_hit", "delta_nodes", "rebuild_nodes"}}
	for i, d := range m.Days {
		rows = append(rows, []string{
			strconv.Itoa(d),
			f(m.DeltaSeconds[i]), f(m.RebuildSeconds[i]),
			f(m.Delta[i].HitRatio()), f(m.Rebuilt[i].HitRatio()),
			strconv.Itoa(m.Delta[i].Nodes), strconv.Itoa(m.Rebuilt[i].Nodes),
		})
	}
	return writeAll(w, rows)
}

// WriteCSV emits day,static_hit,daily_hit,static_nodes,daily_nodes rows.
func (m *Maintenance) WriteCSV(w io.Writer) error {
	rows := [][]string{{"day", "static_hit", "daily_hit", "static_nodes", "daily_nodes"}}
	for i, d := range m.Days {
		rows = append(rows, []string{
			strconv.Itoa(d),
			f(m.Static[i].HitRatio()), f(m.Daily[i].HitRatio()),
			strconv.Itoa(m.Static[i].Nodes), strconv.Itoa(m.Daily[i].Nodes),
		})
	}
	return writeAll(w, rows)
}
