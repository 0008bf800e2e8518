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
	_ CSVWriter = (*Evaluation)(nil)
	_ CSVWriter = (*Figure5)(nil)
	_ CSVWriter = (*Ablation)(nil)
	_ CSVWriter = (*Maintenance)(nil)
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

// WriteCSV emits days,model,hit_ratio,latency_reduction,nodes,traffic_increase
// rows. The no-prefetch baseline has no model, and the traffic
// increments are measured against it, so its last two cells are empty.
// Top-10 follows the baseline on the one row that ran it.
func (e *Evaluation) WriteCSV(w io.Writer) error {
	rows := [][]string{{"days", "model", "hit_ratio", "latency_reduction", "nodes", "traffic_increase"}}
	for i, r := range e.Rows {
		day := strconv.Itoa(r.TrainDays)
		rows = append(rows, []string{day, ModelNone,
			f(e.HitRatio(i, ModelNone)), f(e.LatencyReduction(i, ModelNone)), "", ""})
		for _, m := range []string{ModelTop10, ModelPPM, ModelLRS, ModelPB} {
			if _, ok := r.Results[m]; !ok {
				continue
			}
			rows = append(rows, []string{day, m,
				f(e.HitRatio(i, m)), f(e.LatencyReduction(i, m)),
				strconv.Itoa(e.Nodes(i, m)), f(e.TrafficIncrease(i, m)),
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

// WriteCSV emits one row per evaluation day: day, static_hit,
// daily_hit, static_nodes, daily_nodes, rebuild_seconds, then
// delta_seconds, delta_hit and delta_nodes, which are empty on the
// first day, before the delta path's first update.
func (m *Maintenance) WriteCSV(w io.Writer) error {
	rows := [][]string{{"day", "static_hit", "daily_hit", "static_nodes", "daily_nodes",
		"rebuild_seconds", "delta_seconds", "delta_hit", "delta_nodes"}}
	off := len(m.Days) - len(m.Delta)
	for i, d := range m.Days {
		row := []string{
			strconv.Itoa(d),
			f(m.Static[i].HitRatio()), f(m.Daily[i].HitRatio()),
			strconv.Itoa(m.Static[i].Nodes), strconv.Itoa(m.Daily[i].Nodes),
			f(m.RebuildSeconds[i]), "", "", "",
		}
		if j := i - off; j >= 0 {
			row[6], row[7], row[8] = f(m.DeltaSeconds[j]), f(m.Delta[j].HitRatio()), strconv.Itoa(m.Delta[j].Nodes)
		}
		rows = append(rows, row)
	}
	return writeAll(w, rows)
}
