package serve

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/linalg"
	"repro/internal/pipeline"
)

// This file retains the parts of the modeling cycle that were replaced by
// shared or pooled forms as test oracles: the serial forecast loop, the
// copy-and-sort median, and the admission statistics with their own
// silhouette recompute.

// buildForecastsOracle is the serial, ctx-less forecast loop buildForecasts
// was before it moved onto the worker pool: two fresh models and a fresh
// reconstruction per fit.
func buildForecastsOracle(s *Server, ds *pipeline.Dataset) []towerForecast {
	out := make([]towerForecast, ds.NumTowers())
	if ds.Days < 14 {
		return out
	}
	spd := ds.SlotsPerDay()
	trainDays := ds.Days - 7
	for i, row := range ds.Raw {
		m := &forecast.SpectralModel{Components: forecast.HarmonicsAndSidebands}
		metrics, err := forecast.Backtest(m, row, ds.Days, trainDays, spd)
		if err != nil {
			continue
		}
		full := &forecast.SpectralModel{Components: forecast.HarmonicsAndSidebands}
		if err := full.Fit(row, ds.Days, spd); err != nil {
			continue
		}
		nextDay, err := full.Predict(spd)
		if err != nil {
			continue
		}
		out[i] = newTowerForecast(metrics, nextDay)
	}
	return out
}

// medianSortOracle is the copy-and-sort median medianOf was.
func medianSortOracle(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	tmp := append([]float64(nil), vals...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// admissionStatsOracle measures a candidate the way admissionStats did
// before the analysis handed it the silhouette: everything recomputed from
// the dataset and the assignment, in float64, with the sort-based median.
// cluster.SilhouetteMat is that recompute — internal/cluster's own tests pin
// it bit for bit to the full-matrix body it had then.
func admissionStatsOracle(ds *pipeline.Dataset, a *cluster.Assignment, forecasts []towerForecast, workers int) AdmissionStats {
	st := AdmissionStats{Towers: ds.NumTowers(), BacktestNRMSE: -1}
	fracs := make([]float64, 0, len(ds.Raw))
	for _, row := range ds.Raw {
		nz := 0
		for _, v := range row {
			if v != 0 {
				nz++
			}
		}
		if len(row) > 0 {
			fracs = append(fracs, float64(nz)/float64(len(row)))
		}
	}
	st.Completeness = medianSortOracle(fracs)
	st.DBI, st.Silhouette = math.Inf(1), -1
	if norm, err := linalg.RowsMatrix(ds.Normalized); err == nil {
		if dbi, err := cluster.DaviesBouldinMat(norm, a, workers); err == nil {
			st.DBI = dbi
		}
		if sil, err := cluster.SilhouetteMat(norm, a, workers); err == nil {
			st.Silhouette = sil
		}
	}
	nrmses := make([]float64, 0, len(forecasts))
	for _, fc := range forecasts {
		if fc.Valid && fc.Coverage > 0 && !math.IsNaN(fc.NRMSE) {
			nrmses = append(nrmses, fc.NRMSE)
		}
	}
	if len(nrmses) > 0 {
		st.BacktestNRMSE = medianSortOracle(nrmses)
	}
	return st
}

// sameStatsBits reports whether two stats are equal bit for bit.
func sameStatsBits(a, b AdmissionStats) bool {
	bits := math.Float64bits
	return a.Towers == b.Towers && bits(a.Completeness) == bits(b.Completeness) && bits(a.DBI) == bits(b.DBI) &&
		bits(a.Silhouette) == bits(b.Silhouette) && bits(a.BacktestNRMSE) == bits(b.BacktestNRMSE)
}

// One modeling cycle over a 300-tower, two-week window must compute exactly
// what the cycle it replaced computed — the admission statistics bit for
// bit, every anomaly report equal to a serial Detect of its row, every
// forecast equal to the serial loop's — for every worker count, because
// sharing the distance matrix, selecting instead of sorting and pooling the
// per-tower stages change where the work happens, not its arithmetic. What
// it publishes is the read model projected from those oracle outputs.
func TestRemodelMatchesOraclesAcrossWorkers(t *testing.T) {
	city, series := testCity(t, 300, 21)
	w := newTestWindow(t, city, 14)
	feedDays(w, city, series, 0, 15, nil)

	var wantReports []*anomaly.Report
	var wantForecasts []towerForecast
	for _, workers := range []int{1, 2, 4, 0} {
		cfg := testConfig(city, w)
		cfg.Analyze.Workers = workers
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := srv.runStages(context.Background())
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if wantReports == nil {
			for _, row := range c.ds.Raw {
				r, err := anomaly.Detect(row, c.ds.Days, cfg.Anomaly)
				if err != nil {
					t.Fatal(err)
				}
				wantReports = append(wantReports, r)
			}
			wantForecasts = buildForecastsOracle(srv, c.ds)
			valid := 0
			for _, fc := range wantForecasts {
				if fc.Valid {
					valid++
				}
			}
			if valid < len(wantForecasts)/2 {
				t.Fatalf("only %d of %d oracle forecasts are valid; the comparison would be vacuous", valid, len(wantForecasts))
			}
		}
		if !reflect.DeepEqual(c.reports, wantReports) {
			t.Errorf("workers %d: anomaly reports differ from serial Detect", workers)
		}
		if !reflect.DeepEqual(c.forecasts, wantForecasts) {
			t.Errorf("workers %d: forecasts differ from the serial loop", workers)
		}
		if err := srv.publish(c, time.Now()); err != nil {
			t.Fatal(err)
		}
		got := srv.hist.head().stats
		want := admissionStatsOracle(c.ds, c.res.Assignment, wantForecasts, workers)
		if !sameStatsBits(got, want) {
			t.Errorf("workers %d: admission stats %+v, oracle %+v", workers, got, want)
		}
		if want.Silhouette <= 0 || want.BacktestNRMSE <= 0 || math.IsInf(want.DBI, 0) {
			t.Errorf("workers %d: degenerate oracle stats %+v", workers, want)
		}
		m := srv.model()
		oracle := &candidate{ds: c.ds, res: c.res, reports: wantReports, forecasts: wantForecasts}
		if !reflect.DeepEqual(m.readModel, project(oracle, m.Seq, m.ModeledAt)) {
			t.Errorf("workers %d: published read model differs from the oracle outputs' projection", workers)
		}
	}
}

// At Float32 the silhouette is reduced from the once-rounded distances the
// agglomeration ran on instead of a float64 recompute: it moves in the low
// digits only, and the gate reaches the same verdict on it.
func TestRemodelFloat32SilhouetteTracksFloat64Oracle(t *testing.T) {
	city, series := testCity(t, 300, 21)
	w := newTestWindow(t, city, 14)
	feedDays(w, city, series, 0, 15, nil)
	cfg := testConfig(city, w)
	cfg.Analyze.Precision = core.Float32
	cfg.Admission = AdmitConfig{MinCoverage: 0.8, MinCompleteness: 0.5, MaxValidityDrift: 0.15, MaxBacktestRegress: 0.5}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []AdmissionStats
	for day := 15; day <= 16; day++ {
		c, err := srv.runStages(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.publish(c, time.Now()); err != nil {
			t.Fatal(err)
		}
		got = append(got, srv.hist.head().stats)
		want = append(want, admissionStatsOracle(c.ds, c.res.Assignment, c.forecasts, cfg.Analyze.Workers))
		feedDays(w, city, series, day, day+1, nil)
	}
	gotReasons, _ := admit(cfg.Admission, &got[0], got[1])
	wantReasons, _ := admit(cfg.Admission, &want[0], want[1])
	if !reflect.DeepEqual(gotReasons, wantReasons) {
		t.Errorf("gate verdict %v on the float32 stats, %v on the float64 oracle's", gotReasons, wantReasons)
	}
	for i := range got {
		if d := math.Abs(got[i].Silhouette - want[i].Silhouette); d > 1e-4 {
			t.Errorf("cycle %d: float32 silhouette %v, float64 oracle %v (Δ %.2g)", i+1, got[i].Silhouette, want[i].Silhouette, d)
		}
		got[i].Silhouette = want[i].Silhouette
		if !sameStatsBits(got[i], want[i]) {
			t.Errorf("cycle %d: stats beside the silhouette differ: %+v, oracle %+v", i+1, got[i], want[i])
		}
	}
}
