// Package cluster implements the pattern-identifier and metric-tuner stages
// of the paper's system (Section 3.2): agglomerative hierarchical
// clustering of the per-tower traffic vectors with average linkage — the
// one linkage the package implements — and a Euclidean metric, cut either
// by a distance threshold or by cluster count, with the Davies–Bouldin
// index as the model-selection criterion. A second validity index
// (silhouette) serves the ablation studies and the serving plane's
// admission gate.
//
// Every stage has one implementation, generic over the element type of a
// flat row-major linalg.Mat (float64 or float32) and taking ctx first where
// it is cancellable. The four functions that accept []linalg.Vector instead
// only check the shape, view the rows as a matrix and delegate.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/linalg"
)

// Linkage names how the distance between two clusters is derived from
// point-to-point distances. AverageLinkage, the paper's criterion, is the
// only one; every other value is rejected.
type Linkage int

// AverageLinkage is the mean pairwise distance between members of the two
// clusters.
const AverageLinkage Linkage = 0

// String implements fmt.Stringer.
func (l Linkage) String() string {
	if l == AverageLinkage {
		return "average"
	}
	return fmt.Sprintf("linkage(%d)", int(l))
}

// Errors returned by the clustering functions.
var (
	ErrNoPoints    = errors.New("cluster: no points")
	ErrBadK        = errors.New("cluster: invalid cluster count")
	ErrShapeRagged = errors.New("cluster: points have differing dimensions")
)

// Merge records one agglomeration step of the dendrogram. Leaves are
// numbered 0..N-1; the merge at index i creates the internal node N+i.
type Merge struct {
	// A and B are the node IDs merged at this step (leaf or internal).
	A, B int
	// Distance is the linkage distance at which the merge happened.
	Distance float64
	// Size is the number of leaves under the new node.
	Size int
}

// Dendrogram is the full merge tree produced by hierarchical clustering.
type Dendrogram struct {
	// N is the number of leaves (input points).
	N int
	// Merges has exactly N-1 entries ordered as performed by the
	// algorithm. Average linkage is reducible, so merge distances are
	// non-decreasing.
	Merges []Merge
}

// Distances owns the pairwise Euclidean distances of one point set — the
// N(N−1)/2 float64 entries above the diagonal, condensed — so the stages
// that need them share one computation: the pattern identifier agglomerates
// over them (HierarchicalCtx) and the silhouette index reduces them
// (Silhouette). The entries cost 8 bytes each, 23 MB at 2,400 points and
// 369 MB at the paper's 9,600; drop the value once both have run.
type Distances struct {
	c condensed
}

// DistancesMatCtx computes the distances between x's rows with the element
// type's blocked Gram-trick kernel on up to `workers` goroutines (≤ 0 means
// GOMAXPROCS). For float32 inputs the condensed squared distances are
// widened (exactly) before the square root, so everything downstream sees
// full-precision arithmetic on once-rounded inputs.
//
// Every entry is computed independently, so the result is bit-identical
// for any worker count. ctx is observed between row strips of the kernel,
// and a kernel worker panic is returned as an error instead of crashing the
// process.
func DistancesMatCtx[F linalg.Float](ctx context.Context, x *linalg.Mat[F], workers int) (*Distances, error) {
	if x.Rows == 0 {
		return nil, ErrNoPoints
	}
	c := newCondensed(x.Rows)
	if err := condensedInto(ctx, c.d, x, workers); err != nil {
		return nil, err
	}
	return &Distances{c: c}, nil
}

// HierarchicalCtx builds the average-linkage dendrogram of the points using the nearest-neighbour-chain algorithm: O(N²) time and O(N)
// extra scratch for the chain. The agglomeration overwrites the matrix it
// runs on, so it runs on a scratch copy — transiently doubling the
// footprint — and d stays valid for Silhouette. The
// agglomeration always runs in float64 and is sequential; ctx is observed
// between merges.
func (d *Distances) HierarchicalCtx(ctx context.Context, linkage Linkage) (*Dendrogram, error) {
	return agglomerate(ctx, condensed{n: d.c.n, d: slices.Clone(d.c.d)}, linkage)
}

// agglomerate builds the dendrogram of the points behind dist, destroying
// dist in the process.
func agglomerate(ctx context.Context, dist condensed, linkage Linkage) (*Dendrogram, error) {
	if linkage != AverageLinkage {
		return nil, fmt.Errorf("cluster: unknown linkage %v", linkage)
	}
	if dist.n == 1 {
		return &Dendrogram{N: 1, Merges: nil}, nil
	}
	slotMerges, err := nnChain(ctx, dist)
	if err != nil {
		return nil, err
	}
	return relabelMerges(dist.n, slotMerges), nil
}

// HierarchicalMatCtx builds the dendrogram of x's rows: DistancesMatCtx
// followed by the agglomeration of HierarchicalCtx, run directly on the
// distances (nothing else will read them) instead of a scratch copy. For
// float32 inputs the merge DECISIONS track the float64 instantiation. The
// result is bit-identical for any worker count.
func HierarchicalMatCtx[F linalg.Float](ctx context.Context, x *linalg.Mat[F], linkage Linkage, workers int) (*Dendrogram, error) {
	d, err := DistancesMatCtx(ctx, x, workers)
	if err != nil {
		return nil, err
	}
	return agglomerate(ctx, d.c, linkage)
}

// HierarchicalWorkersCtx is HierarchicalMatCtx for points held as a slice of
// float64 row vectors.
func HierarchicalWorkersCtx(ctx context.Context, points []linalg.Vector, linkage Linkage, workers int) (*Dendrogram, error) {
	x, err := pointsMatrix(points)
	if err != nil {
		return nil, err
	}
	return HierarchicalMatCtx(ctx, x, linkage, workers)
}

// pointsMatrix is the bridge from the slice-of-vectors form to the flat
// matrix every stage runs on. Dimensions are validated up front, so a
// ragged input can never reach a kernel's work distribution. When the
// points alias one contiguous matrix — the row views of a
// pipeline.Dataset's flat backing — the result aliases that storage;
// loose rows are packed once.
func pointsMatrix(points []linalg.Vector) (*linalg.Matrix, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("%w: point %d has %d dims, want %d", ErrShapeRagged, i, len(p), dim)
		}
	}
	return linalg.RowsMatrix(points)
}

// condensedInto fills the float64 condensed buffer with the Euclidean
// distances between x's rows, running the blocked Gram-trick kernel at x's
// own element type. The per-pair form this replaced lives on as
// condensedDistancesOracle in oracle_test.go; the float64 kernel agrees
// with it to ≤1e-9 relative error (Gram-trick reassociation) and is
// bit-identical across worker counts.
func condensedInto[F linalg.Float](ctx context.Context, dst []float64, x *linalg.Mat[F], workers int) error {
	switch xx := any(x).(type) {
	case *linalg.Matrix:
		norms := make(linalg.Vector, xx.Rows)
		if err := linalg.PairwiseSquaredCondensedCtx(ctx, dst, xx, norms, workers); err != nil {
			return err
		}
	case *linalg.Matrix32:
		buf := make(linalg.Vector32, len(dst))
		norms := make(linalg.Vector32, xx.Rows)
		if err := linalg.PairwiseSquaredCondensedCtx(ctx, buf, xx, norms, workers); err != nil {
			return err
		}
		for i, v := range buf {
			dst[i] = float64(v)
		}
	}
	return linalg.SquaredDistancesSqrtInPlaceCtx(ctx, dst, workers)
}

// condensed is an upper-triangular N×N distance matrix stored as the
// N(N-1)/2 entries above the diagonal, row-major: row i holds the
// distances to j ∈ (i, N) in a contiguous run.
type condensed struct {
	n int
	d []float64
}

func newCondensed(n int) condensed {
	return condensed{n: n, d: make([]float64, n*(n-1)/2)}
}

// index maps an unordered pair (i ≠ j) to its condensed offset.
func (c condensed) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*(2*c.n-i-1)/2 + (j - i - 1)
}

// slotMerge records one agglomeration against matrix slots: slot i always
// holds the current cluster occupying the slot of original leaf i.
type slotMerge struct {
	slotA, slotB int
	distance     float64
}

// nnChain runs the nearest-neighbour-chain agglomeration over the condensed
// matrix, destroying it in the process. Extra scratch is O(N): the sizes,
// one offset per condensed row, the ascending list of active slots and the
// chain stack. Merges are recorded against slots in discovery order, which
// for a reducible linkage such as average linkage sorts into a valid
// agglomeration order.
//
// Every entry is reached through the row offsets: the pair (i, j), i < j,
// sits at off[i]+j. A neighbour scan of top walks only the active slots,
// first those below top (the column above the diagonal, one entry per row)
// and then those above it (top's own row run), so j still ascends and the
// strict < keeps the lowest j of a tie.
func nnChain(ctx context.Context, dist condensed) ([]slotMerge, error) {
	done := ctx.Done()
	n, d := dist.n, dist.d
	size := make([]int, n)
	off := make([]int, n)
	active := make([]int, n)
	for i := range off {
		size[i] = 1
		off[i] = dist.index(i, i+1) - (i + 1)
		active[i] = i
	}
	slotMerges := make([]slotMerge, 0, n-1)
	chain := make([]int, 0, n)

	for len(slotMerges) < n-1 {
		// One cancellation check per merge: O(N) checks against the
		// O(N^2) agglomeration keeps the scan loops branch-free.
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if len(chain) == 0 {
			chain = append(chain, active[0])
		}
		for {
			top := chain[len(chain)-1]
			// Nearest active neighbour of top.
			best, bestDist := -1, math.Inf(1)
			at, _ := slices.BinarySearch(active, top)
			for _, j := range active[:at] {
				if dj := d[off[j]+top]; dj < bestDist {
					best, bestDist = j, dj
				}
			}
			row := off[top]
			for _, j := range active[at+1:] {
				if dj := d[row+j]; dj < bestDist {
					best, bestDist = j, dj
				}
			}
			if best == -1 {
				// Only one active cluster left but merges incomplete —
				// cannot happen, guard against infinite loop.
				return nil, errors.New("cluster: internal error: no active neighbour")
			}
			if len(chain) >= 2 && chain[len(chain)-2] == best {
				// Reciprocal nearest neighbours: merge top and best.
				a, b := top, best
				chain = chain[:len(chain)-2]
				na, nb := size[a], size[b]
				// Average-linkage Lance–Williams update of distances from
				// the merged cluster (stored in slot a) to every other
				// active cluster.
				for _, k := range active {
					if k == a || k == b {
						continue
					}
					ak, bk := off[a]+k, off[b]+k
					if k < a {
						ak = off[k] + a
					}
					if k < b {
						bk = off[k] + b
					}
					d[ak] = (float64(na)*d[ak] + float64(nb)*d[bk]) / float64(na+nb)
				}
				slotMerges = append(slotMerges, slotMerge{slotA: a, slotB: b, distance: bestDist})
				at, _ := slices.BinarySearch(active, b)
				active = slices.Delete(active, at, at+1)
				size[a] = na + nb
				break
			}
			chain = append(chain, best)
		}
	}
	return slotMerges, nil
}

// relabelMerges sorts slot merges by distance and relabels slots into
// dendrogram node IDs with a union-find over the leaves.
func relabelMerges(n int, slotMerges []slotMerge) *Dendrogram {
	sort.SliceStable(slotMerges, func(i, j int) bool { return slotMerges[i].distance < slotMerges[j].distance })
	parent := make([]int, 2*n-1)
	nodeSize := make([]int, 2*n-1)
	for i := range parent {
		parent[i] = i
		if i < n {
			nodeSize[i] = 1
		}
	}
	merges := make([]Merge, 0, n-1)
	for i, sm := range slotMerges {
		ra, rb := findRoot(parent, sm.slotA), findRoot(parent, sm.slotB)
		newNode := n + i
		parent[ra] = newNode
		parent[rb] = newNode
		nodeSize[newNode] = nodeSize[ra] + nodeSize[rb]
		merges = append(merges, Merge{A: ra, B: rb, Distance: sm.distance, Size: nodeSize[newNode]})
	}
	return &Dendrogram{N: n, Merges: merges}
}

// findRoot returns the root of x in the union-find forest, halving the
// path it walks.
func findRoot(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// Assignment maps each input point to a cluster label in [0, K).
type Assignment struct {
	// Labels[i] is the cluster of point i.
	Labels []int
	// K is the number of clusters.
	K int
}

// Members returns the point indices of each cluster, indexed by label.
func (a *Assignment) Members() [][]int {
	out := make([][]int, a.K)
	for i, l := range a.Labels {
		out[l] = append(out[l], i)
	}
	return out
}

// Sizes returns the number of points in each cluster.
func (a *Assignment) Sizes() []int {
	out := make([]int, a.K)
	for _, l := range a.Labels {
		out[l]++
	}
	return out
}

// CutK cuts the dendrogram into exactly k clusters by undoing the last k-1
// merges. Labels are renumbered to 0..k-1 in order of first appearance.
func (d *Dendrogram) CutK(k int) (*Assignment, error) {
	if k < 1 || k > d.N {
		return nil, fmt.Errorf("%w: k=%d with %d points", ErrBadK, k, d.N)
	}
	return d.cut(len(d.Merges) - (k - 1))
}

// CutThreshold cuts the dendrogram at the given linkage distance: merges
// with Distance ≤ threshold are applied, the rest undone. This is the
// paper's stop condition ("stops the clustering when the distance between
// two clusters is above the threshold value").
func (d *Dendrogram) CutThreshold(threshold float64) (*Assignment, error) {
	applied := 0
	for _, m := range d.Merges {
		if m.Distance <= threshold {
			applied++
		}
	}
	return d.cut(applied)
}

// cut applies the first `applied` merges and returns the resulting labels.
func (d *Dendrogram) cut(applied int) (*Assignment, error) {
	if applied < 0 || applied > len(d.Merges) {
		return nil, fmt.Errorf("%w: applying %d of %d merges", ErrBadK, applied, len(d.Merges))
	}
	// Union-find over node IDs.
	parent := make([]int, d.N+applied)
	for i := range parent {
		parent[i] = i
	}
	for i := 0; i < applied; i++ {
		m := d.Merges[i]
		newNode := d.N + i
		parent[findRoot(parent, m.A)] = newNode
		parent[findRoot(parent, m.B)] = newNode
	}
	labels := make([]int, d.N)
	remap := make(map[int]int)
	for i := 0; i < d.N; i++ {
		root := findRoot(parent, i)
		l, ok := remap[root]
		if !ok {
			l = len(remap)
			remap[root] = l
		}
		labels[i] = l
	}
	return &Assignment{Labels: labels, K: len(remap)}, nil
}

// MergeDistances returns the linkage distances of the merges in order.
func (d *Dendrogram) MergeDistances() []float64 {
	out := make([]float64, len(d.Merges))
	for i, m := range d.Merges {
		out[i] = m.Distance
	}
	return out
}

// ThresholdForK returns a threshold value that, when passed to
// CutThreshold, yields exactly k clusters: the midpoint between the last
// applied merge distance and the first undone one. It assumes monotone
// merge distances (true for average linkage).
func (d *Dendrogram) ThresholdForK(k int) (float64, error) {
	if k < 1 || k > d.N {
		return 0, fmt.Errorf("%w: k=%d with %d points", ErrBadK, k, d.N)
	}
	dists := d.MergeDistances()
	sort.Float64s(dists)
	applied := len(dists) - (k - 1)
	switch {
	case applied <= 0:
		if len(dists) == 0 {
			return 0, nil
		}
		return dists[0] / 2, nil
	case applied >= len(dists):
		return dists[len(dists)-1] + 1, nil
	default:
		return (dists[applied-1] + dists[applied]) / 2, nil
	}
}
