package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/panicsafe"
)

// Cluster validity indices over a flat row-major matrix, generic over the
// modeling precision: the distance kernels run at the matrix's own element
// type (the float32 instantiation halves the memory traffic that dominates
// the metric-tuner sweep), while every statistic derived from the
// distances — scatter sums, index ratios, curve minima — is reduced in
// float64 regardless.

// checkAssignment validates an assignment against n points: one label per
// point, every label in [0, K). The index loops below rely on it.
func checkAssignment(n int, a *Assignment) error {
	if n == 0 {
		return ErrNoPoints
	}
	if len(a.Labels) != n {
		return fmt.Errorf("cluster: %d labels for %d points", len(a.Labels), n)
	}
	for _, l := range a.Labels {
		if l < 0 || l >= a.K {
			return fmt.Errorf("cluster: label %d out of range [0,%d)", l, a.K)
		}
	}
	return nil
}

// CentroidsMat returns the K×dim matrix of cluster centroids of the
// assignment. Empty clusters get a zero row. The per-cluster sums
// accumulate serially in point order at the matrix's own precision.
func CentroidsMat[F linalg.Float](x *linalg.Mat[F], a *Assignment) (*linalg.Mat[F], error) {
	if err := checkAssignment(x.Rows, a); err != nil {
		return nil, err
	}
	out := linalg.NewMat[F](a.K, x.Cols)
	counts := make([]int, a.K)
	for i, l := range a.Labels {
		if err := out.Row(l).AddInPlace(x.Row(i)); err != nil {
			return nil, err
		}
		counts[l]++
	}
	for l, c := range counts {
		if c > 0 {
			out.Row(l).ScaleInPlace(F(1 / float64(c)))
		}
	}
	return out, nil
}

// DaviesBouldinMat computes the Davies–Bouldin index of the clustering, the
// metric-tuner criterion of Section 3.2:
//
//	DBI = (1/R) Σ_i max_{j≠i} (S_i + S_j) / M_ij
//
// where S_i is the average distance of cluster i's members to their
// centroid and M_ij the distance between the centroids of clusters i and
// j. Lower is better. Clusters with no members are skipped; the index is
// undefined for fewer than two non-empty clusters.
//
// The member-to-centroid distances run serially in point order; the
// centroid separations come from the blocked symmetric kernel on up to
// `workers` goroutines (≤ 0 means GOMAXPROCS). Both use the Gram-trick
// dots, so the index is bit-identical for any worker count; clusters whose
// centroids coincide bit-for-bit still divide by an exact zero and score
// +Inf, exactly as the per-pair form did.
func DaviesBouldinMat[F linalg.Float](x *linalg.Mat[F], a *Assignment, workers int) (float64, error) {
	xnorms := make(linalg.Vec[F], x.Rows)
	if err := linalg.RowNormsSquaredInto(xnorms, x); err != nil {
		return 0, err
	}
	return daviesBouldin(x, xnorms, a, workers)
}

// daviesBouldin is DaviesBouldinMat given the squared row norms of x.
func daviesBouldin[F linalg.Float](x *linalg.Mat[F], xnorms linalg.Vec[F], a *Assignment, workers int) (float64, error) {
	cm, err := CentroidsMat(x, a) // also checks the assignment
	if err != nil {
		return 0, err
	}
	scatter, counts, err := clusterScatter(x, xnorms, a, cm)
	if err != nil {
		return 0, err
	}
	// Keep only non-empty clusters.
	var idx []int
	for i, c := range counts {
		if c > 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) < 2 {
		return 0, errors.New("cluster: Davies-Bouldin needs at least two non-empty clusters")
	}
	// Centroid separations M_ij via the blocked symmetric kernel.
	sep := linalg.NewMat[F](a.K, a.K)
	if err := linalg.PairwiseSquaredIntoCtx(context.Background(), sep, cm, nil, workers); err != nil {
		return 0, err
	}
	var sum float64
	for _, i := range idx {
		worst := math.Inf(-1)
		for _, j := range idx {
			if i == j {
				continue
			}
			m := math.Sqrt(float64(sep.At(i, j)))
			if m == 0 {
				// Coincident centroids: the ratio is unbounded; treat as a
				// very bad separation rather than dividing by zero.
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

// DaviesBouldinWorkers is DaviesBouldinMat for points held as a slice of
// float64 row vectors.
func DaviesBouldinWorkers(points []linalg.Vector, a *Assignment, workers int) (float64, error) {
	x, err := pointsMatrix(points)
	if err != nil {
		return 0, err
	}
	return DaviesBouldinMat(x, a, workers)
}

// clusterScatter returns S_i (mean member-to-centroid distance) and member
// counts per cluster of an already-checked assignment, given the squared
// row norms of x. Each point needs only the distance to its ASSIGNED
// centroid, so this runs one Gram-trick dot per point — same operation
// sequence as the cross kernel (making coincident point/centroid pairs
// exactly zero) without computing the unused n×K remainder. The sums
// accumulate serially in point order in float64.
func clusterScatter[F linalg.Float](x *linalg.Mat[F], xnorms linalg.Vec[F], a *Assignment, cm *linalg.Mat[F]) ([]float64, []int, error) {
	cnorms := make(linalg.Vec[F], cm.Rows)
	if err := linalg.RowNormsSquaredInto(cnorms, cm); err != nil {
		return nil, nil, err
	}
	scatter := make([]float64, a.K)
	counts := make([]int, a.K)
	for i, l := range a.Labels {
		sq, err := linalg.AssignedSquaredDistance(x, cm, xnorms, cnorms, i, l)
		if err != nil {
			return nil, nil, err
		}
		scatter[l] += math.Sqrt(sq)
		counts[l]++
	}
	for i := range scatter {
		if counts[i] > 0 {
			scatter[i] /= float64(counts[i])
		}
	}
	return scatter, counts, nil
}

// DistancesToCentroid returns, for each cluster, the sorted distances of
// its members to the cluster centroid — the data behind the per-cluster
// distance CDF of Figure 6(b).
func DistancesToCentroid[F linalg.Float](x *linalg.Mat[F], a *Assignment) ([][]float64, error) {
	cm, err := CentroidsMat(x, a)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, a.K)
	for i, l := range a.Labels {
		d, err := linalg.Distance(x.Row(i), cm.Row(l))
		if err != nil {
			return nil, err
		}
		out[l] = append(out[l], d)
	}
	for i := range out {
		sort.Float64s(out[i])
	}
	return out, nil
}

// Silhouette computes the mean silhouette coefficient of the clustering,
// the second validity index of the serving plane's admission gate and of
// the ablation benches. Points in singleton clusters contribute a
// silhouette of zero.
//
// One pass over the condensed entries folds each distance into the
// per-cluster sums of both its endpoints, an N×K buffer. The outer index
// ascends, so every point's sums accumulate in ascending order of the other
// point — the order of a row scan of the full matrix — and the coefficient
// is bit-identical to that form's (silhouetteFullOracle in oracle_test.go).
// d is only read.
func (d *Distances) Silhouette(a *Assignment) (float64, error) {
	n := d.c.n
	if err := checkAssignment(n, a); err != nil {
		return 0, err
	}
	if a.K < 2 {
		return 0, errors.New("cluster: silhouette needs at least two clusters")
	}
	k := a.K
	sums := make([]float64, n*k)
	dist := d.c.d
	for i := 0; i < n-1; i++ {
		li := a.Labels[i]
		own := sums[i*k : (i+1)*k]
		row := dist[:n-1-i]
		dist = dist[len(row):]
		for o, v := range row {
			j := i + 1 + o
			own[a.Labels[j]] += v
			sums[j*k+li] += v
		}
	}
	sizes := a.Sizes()
	var total float64
	for i := 0; i < n; i++ {
		li := a.Labels[i]
		if sizes[li] <= 1 {
			continue // silhouette of a singleton is defined as 0
		}
		// Mean distance to own cluster (a) and to the nearest other
		// cluster (b).
		sumByCluster := sums[i*k : (i+1)*k]
		own := sumByCluster[li] / float64(sizes[li]-1)
		other := math.Inf(1)
		for c := 0; c < k; c++ {
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

// SilhouetteMat is Distances.Silhouette for a caller that holds only the
// points: the distances are computed (on up to `workers` goroutines, ≤ 0
// means GOMAXPROCS), reduced and dropped. A caller that also clusters the
// same points should compute the Distances once and ask both questions of
// it, as core.AnalyzeContext does.
func SilhouetteMat[F linalg.Float](x *linalg.Mat[F], a *Assignment, workers int) (float64, error) {
	d, err := DistancesMatCtx(context.Background(), x, workers)
	if err != nil {
		return 0, err
	}
	return d.Silhouette(a)
}

// SilhouetteWorkers is SilhouetteMat for points held as a slice of float64
// row vectors.
func SilhouetteWorkers(points []linalg.Vector, a *Assignment, workers int) (float64, error) {
	x, err := pointsMatrix(points)
	if err != nil {
		return 0, err
	}
	return SilhouetteMat(x, a, workers)
}

// DBICurvePoint is one evaluation of the Davies–Bouldin index at a given
// cluster count, together with the cut threshold that produces it.
type DBICurvePoint struct {
	K         int
	Threshold float64
	DBI       float64
}

// DBICurveMatCtx evaluates the Davies–Bouldin index for every cluster count
// in [minK, maxK], reproducing the metric-tuner sweep behind Figure 6(a).
// The squared row norms of x are computed once for the sweep, and the
// cluster counts fan out over up to `workers` goroutines (≤ 0 means
// GOMAXPROCS; one runs them in order on the caller's goroutine). Each
// count's index is computed exactly as DaviesBouldinMat computes it, so the
// curve is bit-identical for any worker count. ctx is observed once per
// evaluated cluster count.
func DBICurveMatCtx[F linalg.Float](ctx context.Context, x *linalg.Mat[F], dendro *Dendrogram, minK, maxK, workers int) ([]DBICurvePoint, error) {
	if minK < 2 {
		return nil, fmt.Errorf("%w: minK=%d (need at least 2)", ErrBadK, minK)
	}
	if maxK < minK || maxK > dendro.N {
		return nil, fmt.Errorf("%w: maxK=%d with minK=%d and %d points", ErrBadK, maxK, minK, dendro.N)
	}
	xnorms := make(linalg.Vec[F], x.Rows)
	if err := linalg.RowNormsSquaredInto(xnorms, x); err != nil {
		return nil, err
	}
	out := make([]DBICurvePoint, maxK-minK+1)
	err := panicsafe.ForEach(ctx, len(out), workers, func(_, i int) error {
		k := minK + i
		assign, err := dendro.CutK(k)
		if err != nil {
			return err
		}
		dbi, err := daviesBouldin(x, xnorms, assign, 1)
		if err != nil {
			return err
		}
		threshold, err := dendro.ThresholdForK(k)
		if err != nil {
			return err
		}
		out[i] = DBICurvePoint{K: k, Threshold: threshold, DBI: dbi}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// OptimalKMatCtx returns the cluster count minimising the Davies–Bouldin
// index over [minK, maxK], together with the full curve, with the worker
// bound and cancellation of DBICurveMatCtx.
func OptimalKMatCtx[F linalg.Float](ctx context.Context, x *linalg.Mat[F], dendro *Dendrogram, minK, maxK, workers int) (int, []DBICurvePoint, error) {
	curve, err := DBICurveMatCtx(ctx, x, dendro, minK, maxK, workers)
	if err != nil {
		return 0, nil, err
	}
	best := curve[0]
	for _, p := range curve[1:] {
		if p.DBI < best.DBI {
			best = p
		}
	}
	return best.K, curve, nil
}

// OptimalKCtx is OptimalKMatCtx for points held as a slice of float64 row
// vectors.
func OptimalKCtx(ctx context.Context, points []linalg.Vector, dendro *Dendrogram, minK, maxK, workers int) (int, []DBICurvePoint, error) {
	x, err := pointsMatrix(points)
	if err != nil {
		return 0, nil, err
	}
	return OptimalKMatCtx(ctx, x, dendro, minK, maxK, workers)
}

// AdjustedRandIndex measures the agreement between two labelings of the
// same points, corrected for chance. It is used to validate recovered
// clusters against the synthetic ground truth (1 = identical partitions,
// ~0 = random agreement).
func AdjustedRandIndex(labelsA, labelsB []int) (float64, error) {
	if len(labelsA) != len(labelsB) {
		return 0, fmt.Errorf("cluster: label slices differ in length: %d vs %d", len(labelsA), len(labelsB))
	}
	n := len(labelsA)
	if n == 0 {
		return 0, ErrNoPoints
	}
	// Contingency table.
	table := make(map[[2]int]float64)
	rowSum := make(map[int]float64)
	colSum := make(map[int]float64)
	for i := 0; i < n; i++ {
		table[[2]int{labelsA[i], labelsB[i]}]++
		rowSum[labelsA[i]]++
		colSum[labelsB[i]]++
	}
	choose2 := func(x float64) float64 { return x * (x - 1) / 2 }
	var sumTable, sumRow, sumCol float64
	for _, v := range table {
		sumTable += choose2(v)
	}
	for _, v := range rowSum {
		sumRow += choose2(v)
	}
	for _, v := range colSum {
		sumCol += choose2(v)
	}
	total := choose2(float64(n))
	if total == 0 {
		return 1, nil
	}
	expected := sumRow * sumCol / total
	maxIndex := (sumRow + sumCol) / 2
	if maxIndex == expected {
		return 1, nil
	}
	return (sumTable - expected) / (maxIndex - expected), nil
}

// PurityAgainstTruth returns, for each predicted cluster, the fraction of
// its members whose ground-truth label equals the cluster's majority truth
// label, plus the overall purity. It quantifies how well recovered traffic
// patterns match ground-truth functional regions.
func PurityAgainstTruth(predicted *Assignment, truth []int) (perCluster []float64, overall float64, err error) {
	if len(predicted.Labels) != len(truth) {
		return nil, 0, fmt.Errorf("cluster: %d predictions for %d truths", len(predicted.Labels), len(truth))
	}
	if len(truth) == 0 {
		return nil, 0, ErrNoPoints
	}
	perCluster = make([]float64, predicted.K)
	correctTotal := 0
	for c, members := range predicted.Members() {
		if len(members) == 0 {
			continue
		}
		counts := make(map[int]int)
		for _, i := range members {
			counts[truth[i]]++
		}
		best := 0
		for _, v := range counts {
			if v > best {
				best = v
			}
		}
		perCluster[c] = float64(best) / float64(len(members))
		correctTotal += best
	}
	return perCluster, float64(correctTotal) / float64(len(truth)), nil
}
