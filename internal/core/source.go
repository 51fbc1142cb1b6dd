package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/poi"
	"repro/internal/trace"
)

// AnalyzeSourceContext runs the full pipeline straight from a record
// stream: the records are cleaned in a single pass by the streaming
// Cleaner, summed into per-tower traffic vectors by the streaming
// vectorizer, and the resulting dataset is analysed exactly as
// AnalyzeContext would. At no point is the record slice materialised: the
// vectorizer holds O(towers × slots) accumulators, and the cleaner holds
// ~70–90 bytes per distinct connection — or, with opts.CleanWindow set, a
// bounded O(window) of dedup state, which is what makes arbitrarily long
// traces ingestible (the shape the paper's Hadoop deployment relies on to
// process billions of logs). The whole chain is batch-wise: records move
// from the parser through the cleaner into the vectorizer thousands at a
// time.
//
// towers supplies the tower locations (typically from
// trace.ReadTowersCSV); towers appearing in the stream but absent from it
// simply get a zero location. The returned CleanStats describe what the
// streaming cleaner removed or amended.
//
// Cancellation: the vectorizer's read loop checks ctx before every batch
// it pulls through the cleaner, and the modeling stages observe it as
// described on AnalyzeContext. src itself is not wrapped — a source that
// can block inside a pull (a paced replay, a retrying reader) must carry
// its own ctx or be passed through trace.WithContext by the caller. On
// cancellation the returned CleanStats still describe the records cleaned
// up to that point.
func AnalyzeSourceContext(ctx context.Context, src trace.Source, towers []trace.TowerInfo, pois []poi.POI, vopts pipeline.VectorizerOptions, opts Options) (*Result, trace.CleanStats, error) {
	if src == nil {
		return nil, trace.CleanStats{}, errors.New("core: nil source")
	}
	cleaned := trace.CleanSourceWindow(src, opts.CleanWindow)
	ds, err := pipeline.VectorizeSourceContext(ctx, cleaned, towers, vopts)
	if err != nil {
		return nil, cleaned.Stats(), fmt.Errorf("core: vectorizing stream: %w", err)
	}
	res, err := AnalyzeContext(ctx, ds, pois, opts)
	if err != nil {
		return nil, cleaned.Stats(), err
	}
	return res, cleaned.Stats(), nil
}
