package pipeline

import (
	"errors"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/linalg"
)

// assertDense checks that rows lie end to end in one row-major buffer: the
// kernel bridge linalg.RowsMatrix must alias them — a write through the
// matrix shows up in every row — instead of packing a copy.
func assertDense(t *testing.T, name string, rows []linalg.Vector) {
	t.Helper()
	m, err := linalg.RowsMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != len(rows) || len(m.Data) != len(rows)*len(rows[0]) {
		t.Fatalf("%s: matrix %dx%d over %d values for %d rows", name, m.Rows, m.Cols, len(m.Data), len(rows))
	}
	for i := range rows {
		orig := m.At(i, 1)
		m.Data[i*m.Cols+1] = -123
		if rows[i][1] != -123 {
			t.Fatalf("%s: RowsMatrix packed row %d instead of aliasing one dense buffer", name, i)
		}
		m.Data[i*m.Cols+1] = orig
	}
}

// The vectorizer must lay the rows of Raw, and those of Normalized, out in
// one contiguous buffer each — that is what lets the blocked distance
// kernels skip packing.
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
	if ds.NumTowers() != 5 || ds.NumSlots() != slots {
		t.Fatalf("dataset %dx%d, want 5x%d", ds.NumTowers(), ds.NumSlots(), slots)
	}
	assertDense(t, "Raw", ds.Raw)
	assertDense(t, "Normalized", ds.Normalized)
	// The series bytes were copied, not adopted.
	ds.Raw[0][0] = -1
	if series[0].Bytes[0] == -1 {
		t.Error("VectorizeSeries must not alias the caller's series")
	}
	ds.Raw[0][0] = series[0].Bytes[0]
	// Normalisation must match ZScoreNormalizeInto of the row bit for bit.
	want := make(linalg.Vector, ds.NumSlots())
	for i := 0; i < ds.NumTowers(); i++ {
		if err := linalg.ZScoreNormalizeInto(want, ds.Raw[i]); err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if ds.Normalized[i][j] != want[j] {
				t.Fatalf("row %d slot %d: normalized %g, want %g", i, j, ds.Normalized[i][j], want[j])
			}
		}
	}
}

// MinActiveSlots filtering must keep the rows dense: dropped towers leave
// no hole in either buffer.
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
	if ds.NumTowers() != 3 || len(ds.Raw) != 3 || len(ds.Normalized) != 3 {
		t.Fatalf("kept %d towers (%d raw, %d normalized rows), want 3", ds.NumTowers(), len(ds.Raw), len(ds.Normalized))
	}
	assertDense(t, "Raw", ds.Raw)
	assertDense(t, "Normalized", ds.Normalized)
	for i, id := range ds.TowerIDs {
		if id == 2 {
			t.Error("silent tower should have been dropped")
		}
		if ds.Raw[i][0] != float64(id+1) {
			t.Fatalf("row %d (tower %d) holds wrong data after compaction", i, id)
		}
	}
}

// VectorizeMatrix adopts the matrix it is handed: the dataset's raw rows
// are that storage, compacted in place when rows are filtered out.
func TestVectorizeMatrixAdoptsAndCompacts(t *testing.T) {
	start := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	opts := VectorizerOptions{Start: start, Days: 7, SlotMinutes: 60, MinActiveSlots: 1}
	slots := 7 * 24
	// Rows 1 and 3 of five are silent.
	build := func() ([]int, []geo.Point, *linalg.Matrix) {
		ids := []int{10, 11, 12, 13, 14}
		locs := make([]geo.Point, len(ids))
		raw := linalg.NewMatrix(len(ids), slots)
		for i := range ids {
			locs[i] = geo.Point{Lat: float64(i), Lon: float64(10 * i)}
			if i == 1 || i == 3 {
				continue
			}
			for j := 0; j < slots; j++ {
				raw.Data[i*raw.Cols+j] = float64((i + 1) * (j % 24))
			}
		}
		return ids, locs, raw
	}
	ids, locs, raw := build()
	_, _, pristine := build()
	ds, err := VectorizeMatrix(ids, locs, raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if &ds.Raw[0][0] != &raw.Data[0] {
		t.Error("Raw[0] must share storage with the matrix passed in")
	}
	assertDense(t, "Raw", ds.Raw)
	assertDense(t, "Normalized", ds.Normalized)
	for r, src := range []int{0, 2, 4} {
		if ds.TowerIDs[r] != 10+src || ds.Locations[r].Lat != float64(src) {
			t.Errorf("row %d: tower %d at %v, want tower %d", r, ds.TowerIDs[r], ds.Locations[r], 10+src)
		}
		want := pristine.Row(src)
		for j, v := range ds.Raw[r] {
			if v != want[j] {
				t.Fatalf("row %d slot %d: %g after compaction, want row %d's %g", r, j, v, src, want[j])
			}
		}
	}
	if ds.NumTowers() != 3 || ds.Validate() != nil {
		t.Errorf("%d towers, Validate %v; want 3 valid rows", ds.NumTowers(), ds.Validate())
	}

	// A matrix whose shape disagrees with the IDs, the locations or the
	// options' slot count is rejected.
	ids, locs, raw = build()
	torn := *raw
	torn.Data = torn.Data[:len(torn.Data)-1]
	for name, args := range map[string]struct {
		ids  []int
		locs []geo.Point
		raw  *linalg.Matrix
	}{
		"ids":       {ids[:4], locs, raw},
		"locations": {ids, locs[:4], raw},
		"cols":      {ids, locs, linalg.NewMatrix(len(ids), slots-24)},
		"data":      {ids, locs, &torn},
	} {
		if _, err := VectorizeMatrix(args.ids, args.locs, args.raw, opts); !errors.Is(err, ErrBadShape) {
			t.Errorf("%s mismatch: err %v, want ErrBadShape", name, err)
		}
	}
	// Every row silent: nothing to model.
	silent := linalg.NewMatrix(3, slots)
	if _, err := VectorizeMatrix([]int{1, 2, 3}, make([]geo.Point, 3), silent, opts); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("all rows silent: err %v, want ErrEmptyDataset", err)
	}
}
