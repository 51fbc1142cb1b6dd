package pipeline

import (
	"testing"
	"time"

	"repro/internal/linalg"
)

// The vectorizer must back every dataset with contiguous flat matrices
// whose row views are exactly the Raw/Normalized vectors — that aliasing
// is what lets the blocked distance kernels skip packing.
func TestVectorizeSeriesFlatBacking(t *testing.T) {
	start := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	opts := VectorizerOptions{Start: start, Days: 7, SlotMinutes: 60}
	slots := 7 * 24
	series := make([]SeriesInput, 5)
	for i := range series {
		bytes := make([]float64, slots)
		for j := range bytes {
			bytes[j] = float64((i+1)*(j%24)) + 1
		}
		series[i] = SeriesInput{TowerID: 100 + i, Bytes: bytes}
	}
	ds, err := VectorizeSeries(series, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ds.RawMatrix == nil || ds.NormalizedMatrix == nil {
		t.Fatal("vectorised dataset must carry flat matrix backings")
	}
	if ds.RawMatrix.Rows != 5 || ds.RawMatrix.Cols != slots {
		t.Fatalf("raw backing %dx%d, want 5x%d", ds.RawMatrix.Rows, ds.RawMatrix.Cols, slots)
	}
	for i := 0; i < ds.NumTowers(); i++ {
		ds.RawMatrix.Set(i, 0, -123)
		if ds.Raw[i][0] != -123 {
			t.Fatalf("Raw[%d] does not alias RawMatrix row %d", i, i)
		}
		ds.RawMatrix.Set(i, 0, series[i].Bytes[0])
		orig := ds.NormalizedMatrix.At(i, 1)
		ds.NormalizedMatrix.Set(i, 1, 456)
		if ds.Normalized[i][1] != 456 {
			t.Fatalf("Normalized[%d] does not alias NormalizedMatrix row %d", i, i)
		}
		ds.NormalizedMatrix.Set(i, 1, orig)
	}
	// The row views must be recognised as contiguous by the kernel bridge.
	m, err := linalg.RowsMatrix(ds.Normalized)
	if err != nil {
		t.Fatal(err)
	}
	if &m.Data[0] != &ds.NormalizedMatrix.Data[0] {
		t.Error("RowsMatrix should alias the flat backing, not pack it")
	}
	// Normalisation must match the reference ZScoreNormalize bit for bit.
	for i := 0; i < ds.NumTowers(); i++ {
		want := linalg.ZScoreNormalize(ds.Raw[i])
		for j := range want {
			if ds.Normalized[i][j] != want[j] {
				t.Fatalf("row %d slot %d: normalized %g, want %g", i, j, ds.Normalized[i][j], want[j])
			}
		}
	}
}

// MinActiveSlots filtering must keep the flat backing dense: dropped
// towers leave no hole in the matrices.
func TestVectorizeSeriesFilterKeepsBackingDense(t *testing.T) {
	start := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	opts := VectorizerOptions{Start: start, Days: 7, SlotMinutes: 60, MinActiveSlots: 10}
	slots := 7 * 24
	series := make([]SeriesInput, 4)
	for i := range series {
		bytes := make([]float64, slots)
		if i != 2 { // tower 2 stays silent and must be dropped
			for j := 0; j < 20; j++ {
				bytes[j] = float64(i + 1)
			}
		}
		series[i] = SeriesInput{TowerID: i, Bytes: bytes}
	}
	ds, err := VectorizeSeries(series, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTowers() != 3 {
		t.Fatalf("kept %d towers, want 3", ds.NumTowers())
	}
	if ds.RawMatrix.Rows != 3 {
		t.Fatalf("raw backing has %d rows, want 3", ds.RawMatrix.Rows)
	}
	for i, id := range ds.TowerIDs {
		if id == 2 {
			t.Error("silent tower should have been dropped")
		}
		if ds.Raw[i][0] != float64(id+1) {
			t.Fatalf("row %d (tower %d) holds wrong data after compaction", i, id)
		}
	}
}
