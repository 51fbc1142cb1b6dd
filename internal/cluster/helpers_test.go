package cluster

import (
	"context"
	"testing"

	"repro/internal/linalg"
)

// matOf packs test points into the flat float64 matrix the stages run on.
func matOf(t testing.TB, points []linalg.Vector) *linalg.Matrix {
	t.Helper()
	x, err := pointsMatrix(points)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// hierarchical builds the dendrogram of loose points with all cores and no
// cancellation, through the slice adapter.
func hierarchical(points []linalg.Vector) (*Dendrogram, error) {
	return HierarchicalWorkersCtx(context.Background(), points, AverageLinkage, 0)
}
