package synth

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/urban"
)

// BuildDataset generates the ground-truth traffic series of every tower in
// the city and vectorises them into an analysis-ready dataset (trimmed to
// whole weeks and z-score normalised). It is the fast path used by the
// experiments and examples; the slow path — emitting CDR logs, cleaning
// them and vectorising the records — exercises the same aggregation code
// via pipeline.VectorizeSourceContext and is covered by the integration
// tests.
func (c *City) BuildDataset() (*pipeline.Dataset, error) {
	series, err := c.GenerateSeries()
	if err != nil {
		return nil, err
	}
	inputs := make([]pipeline.SeriesInput, len(series))
	for i, s := range series {
		inputs[i] = pipeline.SeriesInput{
			TowerID:  s.TowerID,
			Location: c.Towers[i].Location,
			Bytes:    s.Bytes,
		}
	}
	return pipeline.VectorizeSeries(inputs, pipeline.VectorizerOptions{
		Start:       c.Config.Start,
		Days:        c.Config.Days,
		SlotMinutes: c.Config.SlotMinutes,
	})
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
