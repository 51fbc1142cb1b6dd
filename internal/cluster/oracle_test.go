package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/linalg"
)

// This file retains the superseded per-pair computation paths as test
// oracles for the blocked production engine: the pre-condensed
// agglomeration paths (for the NN-chain engine in hierarchical.go) and the
// per-pair distance loops the Gram-trick kernels replaced (for the
// condensed matrix and the validity indices),
// plus the full-matrix silhouette the shared Distances reduction replaced.
// All are strictly slower than the engine they check, and the naive
// agglomeration is O(N³).

// hierarchicalNaive is the textbook agglomeration: scan every active pair
// for the global minimum linkage distance, merge, apply the Lance–Williams
// update on a full N×N matrix, repeat. O(N³) time, O(N²) memory — slow but
// obviously correct, which is exactly what an oracle should be.
func hierarchicalNaive(points []linalg.Vector) (*Dendrogram, error) {
	n := len(points)
	if n == 0 {
		return nil, ErrNoPoints
	}
	if n == 1 {
		return &Dendrogram{N: 1, Merges: nil}, nil
	}
	dist, err := distanceMatrix(points)
	if err != nil {
		return nil, err
	}
	d := func(i, j int) float64 { return dist[i*n+j] }
	setD := func(i, j int, v float64) { dist[i*n+j] = v; dist[j*n+i] = v }

	active := make([]bool, n)
	size := make([]int, n)
	for i := range active {
		active[i] = true
		size[i] = 1
	}
	slotMerges := make([]slotMerge, 0, n-1)
	for len(slotMerges) < n-1 {
		// Global minimum over all active pairs, first pair in (i,j) scan
		// order on ties.
		bestA, bestB, bestDist := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if dj := d(i, j); dj < bestDist {
					bestA, bestB, bestDist = i, j, dj
				}
			}
		}
		a, b := bestA, bestB
		na, nb := size[a], size[b]
		for k := 0; k < n; k++ {
			if !active[k] || k == a || k == b {
				continue
			}
			setD(a, k, (float64(na)*d(a, k)+float64(nb)*d(b, k))/float64(na+nb))
		}
		slotMerges = append(slotMerges, slotMerge{slotA: a, slotB: b, distance: bestDist})
		active[b] = false
		size[a] = na + nb
	}
	return relabelMerges(n, slotMerges), nil
}

// distanceMatrix computes the full N×N Euclidean distance matrix in
// parallel. The up-front dimension validation is the fix for the latent
// deadlock the previous version had: SquaredDistance could fail mid-flight
// on ragged input, every worker would exit early, and the producer was
// stranded forever on the unbuffered send. The cancellable select in the
// producer is defence in depth — unreachable today because validation
// removes the only error source, but it keeps the fan-out pattern correct
// if the worker loop ever gains another early exit.
func distanceMatrix(points []linalg.Vector) ([]float64, error) {
	n := len(points)
	if n == 0 {
		return nil, ErrNoPoints
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("%w: point %d has %d dims, want %d", ErrShapeRagged, i, len(p), dim)
		}
	}
	dist := make([]float64, n*n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	rows := make(chan int)
	done := make(chan struct{})
	errOnce := sync.Once{}
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				for j := i + 1; j < n; j++ {
					sq, err := linalg.SquaredDistance(points[i], points[j])
					if err != nil {
						errOnce.Do(func() {
							firstErr = err
							close(done)
						})
						return
					}
					v := math.Sqrt(sq)
					dist[i*n+j] = v
					dist[j*n+i] = v
				}
			}
		}()
	}
produce:
	for i := 0; i < n; i++ {
		select {
		case rows <- i:
		case <-done:
			break produce
		}
	}
	close(rows)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return dist, nil
}

// at returns the distance between i and j (i ≠ j).
func (c condensed) at(i, j int) float64 { return c.d[c.index(i, j)] }

// row returns the contiguous slice of distances from i to j ∈ (i, N).
func (c condensed) row(i int) []float64 {
	lo := c.index(i, i+1)
	return c.d[lo : lo+c.n-1-i]
}

// condensedDistancesOracle is the per-pair form the condensed distance
// matrix had before the blocked Gram-trick kernel: one subtract-square loop per pair,
// serial. The production kernel must agree with it within 1e-9 relative
// error and make the identical agglomeration decisions.
func condensedDistancesOracle(points []linalg.Vector) (condensed, error) {
	n := len(points)
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return condensed{}, fmt.Errorf("%w: point %d has %d dims, want %d", ErrShapeRagged, i, len(p), dim)
		}
	}
	c := newCondensed(n)
	for i := 0; i < n-1; i++ {
		row := c.row(i)
		pi := points[i]
		for k := range row {
			sq, _ := linalg.SquaredDistance(pi, points[i+1+k])
			row[k] = math.Sqrt(sq)
		}
	}
	return c, nil
}

// hierarchicalPerPairOracle runs the production NN-chain agglomeration
// over the per-pair oracle distances — isolating the effect of the blocked
// kernel from the effect of the chain algorithm (which
// hierarchicalNaive covers).
func hierarchicalPerPairOracle(points []linalg.Vector) (*Dendrogram, error) {
	n := len(points)
	if n == 0 {
		return nil, ErrNoPoints
	}
	if n == 1 {
		return &Dendrogram{N: 1, Merges: nil}, nil
	}
	dist, err := condensedDistancesOracle(points)
	if err != nil {
		return nil, err
	}
	slotMerges, err := nnChain(context.Background(), dist)
	if err != nil {
		return nil, err
	}
	return relabelMerges(n, slotMerges), nil
}

// silhouetteOracle is the per-pair Silhouette the blocked kernel replaced.
func silhouetteOracle(points []linalg.Vector, a *Assignment) (float64, error) {
	n := len(points)
	if n == 0 {
		return 0, ErrNoPoints
	}
	sizes := a.Sizes()
	var total float64
	for i := 0; i < n; i++ {
		li := a.Labels[i]
		if sizes[li] <= 1 {
			continue
		}
		sumByCluster := make([]float64, a.K)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d, err := linalg.Distance(points[i], points[j])
			if err != nil {
				return 0, err
			}
			sumByCluster[a.Labels[j]] += d
		}
		own := sumByCluster[li] / float64(sizes[li]-1)
		other := math.Inf(1)
		for c := 0; c < a.K; c++ {
			if c == li || sizes[c] == 0 {
				continue
			}
			if v := sumByCluster[c] / float64(sizes[c]); v < other {
				other = v
			}
		}
		if math.IsInf(other, 1) {
			continue
		}
		max := math.Max(own, other)
		if max > 0 {
			total += (other - own) / max
		}
	}
	return total / float64(n), nil
}

// silhouetteFullOracle is the full-matrix SilhouetteMat the condensed
// reduction of Distances.Silhouette replaced: all N² distances into an N×N
// matrix at x's element type (square roots included), then one row scan per
// point into K per-cluster sums. At float64 the condensed reduction must
// reproduce it bit for bit; at float32 the two differ in where the square
// root is rounded (here at float32, there after widening).
func silhouetteFullOracle[F linalg.Float](x *linalg.Mat[F], a *Assignment, workers int) (float64, error) {
	n := x.Rows
	if err := checkAssignment(n, a); err != nil {
		return 0, err
	}
	if a.K < 2 {
		return 0, errors.New("cluster: silhouette needs at least two clusters")
	}
	pair := linalg.NewMat[F](n, n)
	if err := linalg.PairwiseSquaredIntoCtx(context.Background(), pair, x, nil, workers); err != nil {
		return 0, err
	}
	if err := linalg.SquaredDistancesSqrtInPlaceCtx(context.Background(), pair.Data, workers); err != nil {
		return 0, err
	}
	sizes := a.Sizes()
	sumByCluster := make([]float64, a.K)
	var total float64
	for i := 0; i < n; i++ {
		li := a.Labels[i]
		if sizes[li] <= 1 {
			continue // silhouette of a singleton is defined as 0
		}
		for c := range sumByCluster {
			sumByCluster[c] = 0
		}
		row := pair.Row(i)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sumByCluster[a.Labels[j]] += float64(row[j])
		}
		own := sumByCluster[li] / float64(sizes[li]-1)
		other := math.Inf(1)
		for c := 0; c < a.K; c++ {
			if c == li || sizes[c] == 0 {
				continue
			}
			if v := sumByCluster[c] / float64(sizes[c]); v < other {
				other = v
			}
		}
		if math.IsInf(other, 1) {
			continue
		}
		max := math.Max(own, other)
		if max > 0 {
			total += (other - own) / max
		}
	}
	return total / float64(n), nil
}

// daviesBouldinOracle is the per-pair Davies–Bouldin the blocked kernels
// replaced.
func daviesBouldinOracle(points []linalg.Vector, a *Assignment) (float64, error) {
	centroids := centroidsOracle(points, a)
	scatter := make([]float64, a.K)
	counts := make([]int, a.K)
	for i, p := range points {
		l := a.Labels[i]
		d, err := linalg.Distance(p, centroids[l])
		if err != nil {
			return 0, err
		}
		scatter[l] += d
		counts[l]++
	}
	for i := range scatter {
		if counts[i] > 0 {
			scatter[i] /= float64(counts[i])
		}
	}
	var idx []int
	for i, c := range counts {
		if c > 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) < 2 {
		return 0, errors.New("cluster: Davies-Bouldin needs at least two non-empty clusters")
	}
	var sum float64
	for _, i := range idx {
		worst := math.Inf(-1)
		for _, j := range idx {
			if i == j {
				continue
			}
			m, err := linalg.Distance(centroids[i], centroids[j])
			if err != nil {
				return 0, err
			}
			if m == 0 {
				worst = math.Inf(1)
				continue
			}
			if r := (scatter[i] + scatter[j]) / m; r > worst {
				worst = r
			}
		}
		sum += worst
	}
	return sum / float64(len(idx)), nil
}

// centroidsOracle is the textbook per-cluster mean: sum the members
// element by element, divide by the member count. Empty clusters stay zero.
func centroidsOracle(points []linalg.Vector, a *Assignment) []linalg.Vector {
	out := make([]linalg.Vector, a.K)
	for c := range out {
		out[c] = make(linalg.Vector, len(points[0]))
	}
	counts := make([]int, a.K)
	for i, p := range points {
		for j, v := range p {
			out[a.Labels[i]][j] += v
		}
		counts[a.Labels[i]]++
	}
	for c, n := range counts {
		if n == 0 {
			continue
		}
		for j := range out[c] {
			out[c][j] /= float64(n)
		}
	}
	return out
}
