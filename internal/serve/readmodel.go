package serve

// readmodel.go is what a published generation keeps: a read model, built
// once by project when the gate accepts a candidate, typed to the JSON the
// handlers write and holding no pointer into the cycle's dataset or
// core.Result. The history ring retains read models only; the raw rows the
// live re-score of /towers/{id}?threshold= reads stay with the live pointer
// of the generation a cycle published (model.raw), so a generation
// republished by rollback cannot re-score (409).

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/linalg"
	"repro/internal/pipeline"
)

// candidate is one modeling cycle's output before the admission gate: what
// the gate measures and the read model is projected from. Nothing retains it
// once the cycle has published or refused it.
type candidate struct {
	ds        *pipeline.Dataset
	res       *core.Result
	reports   []*anomaly.Report
	forecasts []towerForecast
}

// readModel is one accepted generation as the handlers and /models read it.
// It is immutable once published.
type readModel struct {
	// modelInfo is the generation's identity; AgeSeconds and Stale are left
	// zero here and filled per response (see Server.info).
	modelInfo
	slot      time.Duration // width of one dataset slot
	clusters  []clusterJSON
	anomalous int             // towers with at least one anomaly
	towers    []towerRow      // by dataset row, so ascending by tower ID
	anomalies [][]anomalyJSON // by dataset row; empty, not nil, where none
	forecasts []towerForecast // by dataset row; Valid where the stage ran
}

// model is what the live pointer publishes: a generation's read model plus,
// for the generation a cycle published, its raw traffic matrix (nil after a
// rollback republished an older generation).
type model struct {
	*readModel
	raw []linalg.Vector
}

// modelInfo is the JSON shape of a published model's identity. Age and
// Stale are computed at response time: they are how a client reading a
// last-known-good model can tell.
type modelInfo struct {
	Seq        uint64    `json:"seq"`
	ModeledAt  time.Time `json:"modeled_at"`
	AgeSeconds float64   `json:"age_seconds"`
	Stale      bool      `json:"stale"`
	WindowFrom time.Time `json:"window_from"`
	WindowTo   time.Time `json:"window_to"`
	Days       int       `json:"days"`
	Towers     int       `json:"towers"`
	K          int       `json:"k"`
}

type clusterJSON struct {
	Index          int     `json:"index"`
	Region         string  `json:"region"`
	Towers         int     `json:"towers"`
	Share          float64 `json:"share"`
	Representative int     `json:"representative_tower"`
}

type towerRow struct {
	Tower     int    `json:"tower"`
	Cluster   int    `json:"cluster"`
	Region    string `json:"region"`
	Anomalies int    `json:"anomalies"`
}

// anomalyJSON is one flagged slot, with the slot resolved to wall time.
type anomalyJSON struct {
	Time     time.Time `json:"time"`
	Slot     int       `json:"slot"`
	Observed float64   `json:"observed"`
	Expected float64   `json:"expected"`
	Score    float64   `json:"score"`
}

// towerForecast is one row's forecasting artefact, as /towers/{id} serves
// it: the spectral model's backtest on the window's final held-out week
// (forecast.Metrics) and the predicted traffic of the day after the window.
type towerForecast struct {
	// Valid reports whether the forecasting stage ran for this row.
	Valid     bool      `json:"-"`
	Coverage  float64   `json:"coverage"`
	Evaluable int       `json:"evaluable"`
	MAPE      float64   `json:"mape"`
	NextDay   []float64 `json:"next_day"`
	NRMSE     float64   `json:"nrmse"`
	RMSE      float64   `json:"rmse"`
}

func newTowerForecast(m forecast.Metrics, nextDay []float64) towerForecast {
	return towerForecast{Valid: true, Coverage: m.Coverage, Evaluable: m.Evaluable, MAPE: m.MAPE, NextDay: nextDay, NRMSE: m.NRMSE, RMSE: m.RMSE}
}

// project builds the read model of an accepted candidate, published as
// generation seq at the given time.
func project(c *candidate, seq uint64, at time.Time) *readModel {
	ds, res := c.ds, c.res
	rm := &readModel{
		modelInfo: modelInfo{
			Seq:        seq,
			ModeledAt:  at,
			WindowFrom: ds.Start,
			WindowTo:   ds.SlotTime(ds.NumSlots()),
			Days:       ds.Days,
			Towers:     ds.NumTowers(),
			K:          res.OptimalK,
		},
		slot:      time.Duration(ds.SlotMinutes) * time.Minute,
		clusters:  make([]clusterJSON, 0, len(res.Clusters)),
		towers:    make([]towerRow, ds.NumTowers()),
		anomalies: make([][]anomalyJSON, ds.NumTowers()),
		forecasts: c.forecasts,
	}
	for _, cl := range res.Clusters {
		rep := -1
		if cl.Representative >= 0 {
			rep = ds.TowerIDs[cl.Representative]
		}
		rm.clusters = append(rm.clusters, clusterJSON{
			Index:          cl.Index,
			Region:         cl.Region.String(),
			Towers:         len(cl.Members),
			Share:          cl.Share,
			Representative: rep,
		})
	}
	for row, id := range ds.TowerIDs {
		rm.anomalies[row] = rm.resolve(c.reports[row])
		if len(rm.anomalies[row]) > 0 {
			rm.anomalous++
		}
		rm.towers[row] = towerRow{
			Tower:     id,
			Cluster:   res.Assignment.Labels[row],
			Region:    res.TowerRegions[row].String(),
			Anomalies: len(rm.anomalies[row]),
		}
	}
	return rm
}

// resolve lists a report's anomalies with their slots resolved to wall time;
// never nil, so a tower without anomalies encodes as [].
func (rm *readModel) resolve(rep *anomaly.Report) []anomalyJSON {
	if rep == nil || len(rep.Anomalies) == 0 {
		return []anomalyJSON{}
	}
	out := make([]anomalyJSON, len(rep.Anomalies))
	for i, a := range rep.Anomalies {
		out[i] = anomalyJSON{
			Time:     rm.WindowFrom.Add(time.Duration(a.Slot) * rm.slot),
			Slot:     a.Slot,
			Observed: a.Observed,
			Expected: a.Expected,
			Score:    a.Score,
		}
	}
	return out
}

// row finds a tower's dataset row.
func (rm *readModel) row(id int) (int, bool) {
	return slices.BinarySearchFunc(rm.towers, id, func(r towerRow, id int) int { return cmp.Compare(r.Tower, id) })
}
