package main

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// selfcheck runs the end-to-end pass of the suite twice back to back, the
// second time in reverse workload order, and compares the two values of
// every end-to-end metric against the metric's own bound: a benchmark
// whose repeat runs of one commit differ by more than the bound cannot
// resolve a regression of that size.
func selfcheck(ctx context.Context, sp *spec, selected []workload, seed int64, seconds float64) error {
	opts := runOpts{seed: seed, seconds: seconds}
	suite := func(order []workload) (map[string]*report, error) {
		out := map[string]*report{}
		for _, w := range order {
			r, err := runPass(ctx, sp, w, opts)
			if err != nil {
				return nil, err
			}
			out[w.name] = r
		}
		return out, nil
	}
	first, err := suite(selected)
	if err != nil {
		return err
	}
	reversed := slices.Clone(selected)
	slices.Reverse(reversed)
	second, err := suite(reversed)
	if err != nil {
		return err
	}

	fmt.Printf("\n## selfcheck, seed %d, %g s per workload\n\n", seed, seconds)
	fmt.Println("| workload | metric | unit | first run | second run | gap | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	failed := 0
	for _, w := range selected {
		a, b := first[w.name], second[w.name]
		for _, m := range sp.EndToEnd {
			va, vb := a.values[m.Name], b.values[m.Name]
			gap := math.Abs(vb-va) / va
			verdict := "ok"
			if gap > m.Bound {
				verdict = "EXCEEDS"
				failed++
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.1f %% | %.0f %% | %s |\n", w.name, m.Name, m.Unit, va, vb, gap*100, m.Bound*100, verdict)
		}
		verdict := "ok"
		if a.failed+b.failed > 0 {
			verdict = "FAILED"
			failed += a.failed + b.failed
		}
		fmt.Printf("| %s | failed/attempted | | %d/%d | %d/%d | | 0 | %s |\n", w.name, a.failed, a.attempted, b.failed, b.attempted, verdict)
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d metric gaps beyond their bound or failed operations", failed)
	}
	return nil
}
