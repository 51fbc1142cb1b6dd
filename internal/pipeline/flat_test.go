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

// matrixOf packs rows (all of one length) into the matrix VectorizeMatrix
// adopts, with tower IDs 100, 101, … and a location per row.
func matrixOf(rows [][]float64) ([]int, []geo.Point, *linalg.Matrix) {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	ids := make([]int, len(rows))
	locs := make([]geo.Point, len(rows))
	raw := linalg.NewMatrix(len(rows), cols)
	for i, row := range rows {
		ids[i], locs[i] = 100+i, geo.Point{Lat: 31, Lon: 121 + float64(i)}
		copy(raw.Row(i), row)
	}
	return ids, locs, raw
}

// filled returns n slots of pattern(j).
func filled(n int, pattern func(j int) float64) []float64 {
	out := make([]float64, n)
	for j := range out {
		out[j] = pattern(j)
	}
	return out
}

// VectorizeMatrix keeps the whole weeks of opts.Days (every day of a
// shorter trace), rejects a matrix of any other shape, drops rows under
// MinActiveSlots, and lays the kept rows of Raw, and those of Normalized,
// out in one contiguous buffer each — what lets the blocked distance
// kernels skip packing — with Normalized the z-score of Raw bit for bit.
func TestVectorizeMatrixCases(t *testing.T) {
	start := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	hourly := func(days, minActive int) VectorizerOptions {
		return VectorizerOptions{Start: start, Days: days, SlotMinutes: 60, MinActiveSlots: minActive}
	}
	week := 7 * 24
	ramp := func(i int) []float64 {
		return filled(week, func(j int) float64 { return float64((i+1)*(j%24)) + 1 })
	}
	for _, tc := range []struct {
		name     string
		opts     VectorizerOptions
		rows     [][]float64
		wantErr  error
		wantRows []int // input rows kept, in order
		wantDays int
	}{
		{"five-towers", hourly(7, 0), [][]float64{ramp(0), ramp(1), ramp(2), ramp(3), ramp(4)}, nil, []int{0, 1, 2, 3, 4}, 7},
		// 10 days trim to one week: the matrix holds that week only.
		{"trim-to-whole-weeks", hourly(10, 0), [][]float64{filled(week, func(j int) float64 { return float64(j) })}, nil, []int{0}, 7},
		{"31-days-trim-to-28", hourly(31, 0), [][]float64{filled(4*week, func(j int) float64 { return float64(j%7 + 1) })}, nil, []int{0}, 28},
		// Fewer than seven days are kept as they are.
		{"short-trace-kept", hourly(5, 0), [][]float64{filled(5*24, func(j int) float64 { return float64(j%24 + 1) })}, nil, []int{0}, 5},
		{"untrimmed-width", hourly(10, 0), [][]float64{filled(10*24, func(j int) float64 { return float64(j) })}, ErrBadShape, nil, 0},
		{"short-row", hourly(7, 0), [][]float64{{1, 2, 3}}, ErrBadShape, nil, 0},
		{"no-towers", hourly(7, 0), nil, ErrEmptyDataset, nil, 0},
		// Row 2 stays silent and is dropped; the kept rows stay dense.
		{"filter-keeps-dense", hourly(7, 10), [][]float64{
			filled(week, func(j int) float64 { return float64(min(j, 20) % 20) }),
			filled(week, func(j int) float64 { return float64(2 * (j % 24)) }),
			make([]float64, week),
			filled(week, func(j int) float64 { return float64(4 * (j % 24)) }),
		}, nil, []int{0, 1, 3}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ids, locs, raw := matrixOf(tc.rows)
			if len(tc.rows) == 0 {
				raw = linalg.NewMatrix(0, tc.opts.EffectiveDays()*24)
			}
			ds, err := VectorizeMatrix(ids, locs, raw, tc.opts)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ds.Days != tc.wantDays || ds.NumSlots() != tc.wantDays*24 || ds.NumTowers() != len(tc.wantRows) {
				t.Fatalf("%d towers × %d slots over %d days, want %d × %d over %d",
					ds.NumTowers(), ds.NumSlots(), ds.Days, len(tc.wantRows), tc.wantDays*24, tc.wantDays)
			}
			if err := ds.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
			assertDense(t, "Raw", ds.Raw)
			assertDense(t, "Normalized", ds.Normalized)
			want := make(linalg.Vector, ds.NumSlots())
			for r, src := range tc.wantRows {
				if ds.TowerIDs[r] != 100+src || ds.Locations[r] != (geo.Point{Lat: 31, Lon: 121 + float64(src)}) {
					t.Errorf("row %d: tower %d at %v, want input row %d's", r, ds.TowerIDs[r], ds.Locations[r], src)
				}
				for j, v := range ds.Raw[r] {
					if v != tc.rows[src][j] {
						t.Fatalf("row %d slot %d: raw %g, want input row %d's %g", r, j, v, src, tc.rows[src][j])
					}
				}
				if err := linalg.ZScoreNormalizeInto(want, ds.Raw[r]); err != nil {
					t.Fatal(err)
				}
				for j := range want {
					if ds.Normalized[r][j] != want[j] {
						t.Fatalf("row %d slot %d: normalized %g, want %g", r, j, ds.Normalized[r][j], want[j])
					}
				}
			}
		})
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
