package serve

// admit.go is the admission gate of the publication path: every candidate
// model RemodelNow builds is validated here before the atomic pointer
// swap, so a model computed from a poisoned, truncated or collapsed
// window can never displace the last good generation. Rejection is cheap
// and reversible — the candidate is dropped, counters tick, the live
// model keeps serving — which is exactly the asymmetry an admission gate
// wants: false rejects cost one cycle of freshness, false accepts cost
// correctness.
//
// Four checks, each individually disabled by a zero threshold:
//
//	coverage      the candidate must retain at least MinCoverage of the
//	              previous generation's towers — a mass tower loss means
//	              the feed broke, not the city.
//	completeness  the median fraction of non-empty slots per tower must
//	              reach MinCompleteness — a window of holes models noise.
//	validity      the clustering must not degrade vs the last accepted
//	              model beyond MaxValidityDrift (relative DBI increase,
//	              or absolute silhouette drop on its [-1,1] scale).
//	backtest      the spectral forecaster's median backtest NRMSE must
//	              not regress beyond MaxBacktestRegress relative to the
//	              last accepted model.
//
// The relative checks (coverage, validity, backtest) are vacuous for the
// first generation — there is nothing to compare against — so a cold
// service can always bootstrap.

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/pipeline"
)

// AdmitConfig are the admission-gate thresholds. Each zero value
// disables its check; the zero struct disables the gate entirely
// (every candidate publishes, the pre-gate behaviour).
type AdmitConfig struct {
	// MinCoverage is the minimum ratio of candidate towers to the
	// previous accepted generation's towers, in (0, 1].
	MinCoverage float64
	// MinCompleteness is the minimum median per-tower fraction of
	// non-empty slots, in (0, 1].
	MinCompleteness float64
	// MaxValidityDrift bounds clustering degradation vs the last
	// accepted model: the relative Davies-Bouldin increase and the
	// absolute silhouette drop may not exceed it.
	MaxValidityDrift float64
	// MaxBacktestRegress bounds the relative increase of the median
	// backtest NRMSE vs the last accepted model.
	MaxBacktestRegress float64
}

// enabled reports whether any check is live.
func (c AdmitConfig) enabled() bool {
	return c.MinCoverage > 0 || c.MinCompleteness > 0 || c.MaxValidityDrift > 0 || c.MaxBacktestRegress > 0
}

// backtestSlack is the absolute NRMSE slack added to the regression
// bound, so a near-perfect previous backtest (NRMSE ~ 0) does not turn
// any nonzero error into a rejection.
const backtestSlack = 0.05

// AdmissionStats are the validation measurements of one candidate (or
// accepted) model — the numbers the gate compares across generations.
type AdmissionStats struct {
	// Towers is the dataset row count.
	Towers int `json:"towers"`
	// Completeness is the median per-tower fraction of non-empty slots.
	Completeness float64 `json:"completeness"`
	// DBI and Silhouette are the clustering validity indices of the
	// published assignment (DBI lower is better, silhouette higher).
	DBI        float64 `json:"dbi"`
	Silhouette float64 `json:"silhouette"`
	// BacktestNRMSE is the median spectral-backtest NRMSE across rows the
	// forecaster could evaluate; -1 when the stage did not run (short
	// window, forecasting disabled).
	BacktestNRMSE float64 `json:"backtest_nrmse"`
}

// RejectReason names one failed admission check.
type RejectReason string

// The admission-gate reject reasons, in check order.
const (
	RejectCoverage     RejectReason = "coverage"
	RejectCompleteness RejectReason = "completeness"
	RejectValidity     RejectReason = "validity"
	RejectBacktest     RejectReason = "backtest"
)

// rejectReasons is the fixed reason vocabulary; the per-reason counters
// (metrics.rejected) are indexed like it.
var rejectReasons = [...]RejectReason{RejectCoverage, RejectCompleteness, RejectValidity, RejectBacktest}

// RejectionError reports a candidate model the gate refused, carrying
// every failed check. It is not a modeling failure: the cycle ran to
// completion and the live model is untouched.
type RejectionError struct {
	Reasons []RejectReason
	Details []string
}

// Error implements error.
func (e *RejectionError) Error() string {
	return fmt.Sprintf("serve: candidate model rejected by admission gate: %s", strings.Join(e.Details, "; "))
}

// admissionStats measures a candidate model. The validity indices run on
// the same normalized vectors the clustering saw — the silhouette is the
// one the analysis reduced from its own distance matrix — and a degenerate
// assignment (DBI +Inf on coincident centroids, an undefined silhouette
// as -1) is recorded as-is and left to the drift check to judge.
func admissionStats(ds *pipeline.Dataset, res *core.Result, forecasts []towerForecast, workers int) AdmissionStats {
	st := AdmissionStats{Towers: ds.NumTowers(), BacktestNRMSE: -1}

	// Completeness: median across towers of the fraction of slots that
	// carry traffic. The median (not the mean) keeps one dead tower from
	// hiding behind many healthy ones and vice versa.
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
	st.Completeness = medianOf(fracs)

	st.DBI, st.Silhouette = math.Inf(1), res.Silhouette
	if norm, err := linalg.RowsMatrix(ds.Normalized); err == nil {
		if dbi, err := cluster.DaviesBouldinMat(norm, res.Assignment, workers); err == nil {
			st.DBI = dbi
		}
	}

	nrmses := make([]float64, 0, len(forecasts))
	for _, fc := range forecasts {
		if fc.Valid && fc.Coverage > 0 && !math.IsNaN(fc.NRMSE) {
			nrmses = append(nrmses, fc.NRMSE)
		}
	}
	if len(nrmses) > 0 {
		st.BacktestNRMSE = medianOf(nrmses)
	}
	return st
}

// admit runs the gate: candidate stats against the last accepted
// generation's (prev == nil for the first generation — the relative
// checks pass vacuously). It returns the failed checks; an empty slice
// admits the candidate.
func admit(cfg AdmitConfig, prev *AdmissionStats, cand AdmissionStats) ([]RejectReason, []string) {
	var reasons []RejectReason
	var details []string
	fail := func(r RejectReason, format string, args ...any) {
		reasons = append(reasons, r)
		details = append(details, fmt.Sprintf(format, args...))
	}

	if cfg.MinCompleteness > 0 && cand.Completeness < cfg.MinCompleteness {
		fail(RejectCompleteness, "window completeness %.3f < %.3f", cand.Completeness, cfg.MinCompleteness)
	}
	if prev == nil {
		return reasons, details
	}
	if cfg.MinCoverage > 0 && prev.Towers > 0 {
		if ratio := float64(cand.Towers) / float64(prev.Towers); ratio < cfg.MinCoverage {
			fail(RejectCoverage, "tower coverage %.3f < %.3f (%d of %d towers)", ratio, cfg.MinCoverage, cand.Towers, prev.Towers)
		}
	}
	if cfg.MaxValidityDrift > 0 {
		// DBI: lower is better; bound the relative increase. An infinite
		// candidate DBI against a finite baseline always fails.
		if !math.IsInf(prev.DBI, 1) && prev.DBI > 0 && cand.DBI > prev.DBI*(1+cfg.MaxValidityDrift) {
			fail(RejectValidity, "DBI %.4f vs accepted %.4f exceeds +%.0f%% drift", cand.DBI, prev.DBI, cfg.MaxValidityDrift*100)
		}
		// Silhouette: higher is better, lives on [-1, 1]; bound the
		// absolute drop.
		if drop := prev.Silhouette - cand.Silhouette; drop > cfg.MaxValidityDrift {
			fail(RejectValidity, "silhouette %.4f vs accepted %.4f drops %.4f (> %.4f)", cand.Silhouette, prev.Silhouette, drop, cfg.MaxValidityDrift)
		}
	}
	if cfg.MaxBacktestRegress > 0 && prev.BacktestNRMSE >= 0 && cand.BacktestNRMSE >= 0 {
		if bound := prev.BacktestNRMSE*(1+cfg.MaxBacktestRegress) + backtestSlack; cand.BacktestNRMSE > bound {
			fail(RejectBacktest, "backtest NRMSE %.4f vs accepted %.4f exceeds bound %.4f", cand.BacktestNRMSE, prev.BacktestNRMSE, bound)
		}
	}
	return reasons, details
}

// medianOf returns the median of vals (0 for an empty slice). It copies;
// callers keep their order.
func medianOf(vals []float64) float64 {
	return linalg.Quantile(vals, 0.5)
}
