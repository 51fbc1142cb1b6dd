package qp_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/qp"
	"repro/internal/synth"
)

// On a synthetic city's real primary components the projected-gradient
// oracle runs into its iteration cap, and the exact solver finds a strictly
// lower residual for some towers while never a higher one.
func TestSolveSimplexLSBeatsOracleOnRealPrimaries(t *testing.T) {
	cfg := synth.SmallConfig()
	cfg.Towers, cfg.Days = 240, 14
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := city.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeContext(context.Background(), ds, city.POIs, core.Options{ForceK: 5})
	if err != nil {
		t.Fatal(err)
	}
	primaries, err := res.PrimaryComponents()
	if err != nil {
		t.Fatal(err)
	}
	comps := make([]linalg.Vector, len(primaries))
	for i, p := range primaries {
		comps[i] = p.Vector3()
	}
	capped, lower := 0, 0
	for row, f := range res.Features {
		got, err := qp.SolveSimplexLS(f.Vector3(), comps)
		if err != nil {
			t.Fatal(err)
		}
		want, iters, err := qp.SolveSimplexLSOracle(f.Vector3(), comps)
		if err != nil {
			t.Fatal(err)
		}
		if iters == 2000 {
			capped++
		}
		if got.Residual > want.Residual+1e-12 {
			t.Errorf("tower row %d: residual %.17g, oracle %.17g", row, got.Residual, want.Residual)
		}
		if got.Residual < want.Residual {
			lower++
		}
	}
	t.Logf("%d towers: oracle capped on %d, exact residual strictly lower on %d", len(res.Features), capped, lower)
	if capped == 0 || lower == 0 {
		t.Errorf("oracle capped on %d towers, exact residual lower on %d: want both > 0", capped, lower)
	}
}
