package synth

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/urban"
)

// BuildDataset generates the ground-truth traffic of every tower straight
// into its row of the matrix pipeline.VectorizeMatrix adopts, keeping only
// the days the vectorizer's trim rule retains (whole weeks, or every day
// of a trace shorter than a week), and z-score normalises it: the
// analysis-ready dataset, with no per-tower series in between. It is the
// fast path used by the experiments and examples; the slow path — the CDR
// log of LogSource, cleaned and vectorised by
// pipeline.VectorizeSourceContext — yields the same dataset and is covered
// by the integration tests.
func (c *City) BuildDataset() (*pipeline.Dataset, error) {
	opts := pipeline.VectorizerOptions{
		Start:       c.Config.Start,
		Days:        c.Config.Days,
		SlotMinutes: c.Config.SlotMinutes,
	}
	towerIDs := make([]int, len(c.Towers))
	locations := make([]geo.Point, len(c.Towers))
	for i, t := range c.Towers {
		towerIDs[i], locations[i] = t.ID, t.Location
	}
	raw := linalg.NewMatrix(len(c.Towers), opts.EffectiveDays()*c.Config.SlotsPerDay())
	if err := c.generateAll(func(i int) []float64 { return raw.Row(i) }); err != nil {
		return nil, err
	}
	return pipeline.VectorizeMatrix(towerIDs, locations, raw, opts)
}

// TowerInfos returns the tower metadata of the city in the form consumed by
// the trace-processing pipeline (and written to towers.csv by cmd/gentrace).
func (c *City) TowerInfos() []trace.TowerInfo {
	out := make([]trace.TowerInfo, len(c.Towers))
	for i, t := range c.Towers {
		out[i] = trace.TowerInfo{
			TowerID:  t.ID,
			Address:  t.Address,
			Location: t.Location,
		}
	}
	return out
}

// GroundTruthRegions returns, for every row of the dataset, the ground-truth
// functional region of the corresponding tower. It fails if the dataset
// references a tower the city does not contain.
func (c *City) GroundTruthRegions(ds *pipeline.Dataset) ([]urban.Region, error) {
	byID := make(map[int]Region, len(c.Towers))
	for _, t := range c.Towers {
		byID[t.ID] = t.Region
	}
	out := make([]urban.Region, ds.NumTowers())
	for i, id := range ds.TowerIDs {
		r, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("synth: dataset references unknown tower %d", id)
		}
		out[i] = r
	}
	return out, nil
}
