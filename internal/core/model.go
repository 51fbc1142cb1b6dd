// Package core ties the individual stages of the reproduction together into
// the model the paper describes: a three-dimensional view of cellular
// traffic combining time (traffic patterns from hierarchical clustering),
// location (urban functional region labels from POI context), and frequency
// (the three principal spectral components and the four primary components
// every tower decomposes into).
//
// The entry point is AnalyzeContext, which takes a vectorised dataset
// (from package pipeline) plus the POI inventory of the city and produces
// a Result carrying every artefact needed to regenerate the paper's tables
// and figures; AnalyzeSourceContext is the same from a trace.Source. ctx
// is observed between pipeline stages and inside every parallel kernel
// (clustering, NMF, batch FFT), worker pools drain before the call returns,
// and a panic in any pool worker comes back as a *panicsafe.Error rather
// than crashing the process.
//
// The modeling stage (clustering, metric tuner, NMF) is one generic
// function over the element type of a flat linalg.Mat; AnalyzeContext
// picks float64 or float32 once from Options.Precision and everything
// after it is float64.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dsp"
	"repro/internal/freqdomain"
	"repro/internal/label"
	"repro/internal/linalg"
	"repro/internal/nmf"
	"repro/internal/pipeline"
	"repro/internal/poi"
	"repro/internal/timedomain"
	"repro/internal/urban"
)

// NMFRankAuto asks the NMF stage to use the selected cluster count as the
// factorisation rank (one basis pattern per traffic pattern).
const NMFRankAuto = -1

// Precision selects the numeric tier of the modeling stage — the element
// type of the distance and NMF kernels.
type Precision int

const (
	// Float64 is the default full-precision tier. Results are
	// bit-identical run to run and across worker counts.
	Float64 Precision = iota
	// Float32 is the opt-in fast tier: the bandwidth-bound kernels
	// (condensed distances, NMF updates, validity indices) run on float32
	// narrowings of the traffic matrices, halving their memory traffic.
	// The agglomeration logic, index statistics and all reported values
	// stay float64, so modeling DECISIONS — merges, cluster counts,
	// labels — track the Float64 tier; only low-order digits of reported
	// distances/errors move. The FFT stage always runs
	// in float64. Still deterministic across worker counts.
	Float32
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("precision(%d)", int(p))
	}
}

// Options configure the end-to-end analysis. The zero value is usable and
// matches the paper's configuration where applicable.
type Options struct {
	// Linkage is the hierarchical clustering linkage. The zero value,
	// cluster.AverageLinkage (the paper's), is the only one accepted.
	Linkage cluster.Linkage
	// MaxClusters is the upper bound of the Davies–Bouldin sweep of the
	// metric tuner (default 10); the lower bound is minClusters.
	MaxClusters int
	// ForceK skips the metric tuner and cuts the dendrogram into exactly
	// ForceK clusters. Zero lets the Davies–Bouldin index choose.
	ForceK int
	// RepOptions tune the representative-tower search of the
	// frequency-domain stage.
	RepOptions freqdomain.RepOptions
	// Workers bounds the goroutines of the modeling stage — the
	// hierarchical clustering distance matrix, the metric tuner's
	// Davies–Bouldin kernels and the NMF multiplicative updates (≤ 0
	// means GOMAXPROCS). The stage is deterministic: for a fixed Seed,
	// every Workers value produces bit-identical assignments, factors and
	// labels.
	Workers int
	// Seed drives the NMF random initialisation.
	Seed int64
	// NMFRank enables the NMF decomposition stage on the raw traffic
	// matrix: a positive value is used as the rank directly, NMFRankAuto
	// (-1) uses the selected cluster count, and 0 (the zero value) skips
	// the stage.
	NMFRank int
	// Precision selects the numeric tier of the modeling kernels
	// (default Float64; see Precision).
	Precision Precision
}

// smoothWindowSlots is the moving-average window applied to daily profiles
// before extracting peaks and valleys.
const smoothWindowSlots = 3

// minClusters is the lower bound of the Davies–Bouldin sweep.
const minClusters = 2

func (o Options) withDefaults() Options {
	if o.MaxClusters <= 0 {
		o.MaxClusters = 10
	}
	return o
}

// ClusterView bundles everything the model knows about one traffic-pattern
// cluster.
type ClusterView struct {
	// Index is the cluster label in the assignment.
	Index int
	// Region is the urban functional region attached by the labeller.
	Region urban.Region
	// Members are the dataset rows in this cluster.
	Members []int
	// Share is the fraction of towers in this cluster (Table 1).
	Share float64
	// Centroid is the centroid of the members' normalised traffic vectors.
	Centroid linalg.Vector
	// AggregateRaw is the summed raw traffic of the members.
	AggregateRaw linalg.Vector
	// TimeSummary holds the Table 4/5 statistics of the aggregate traffic.
	TimeSummary timedomain.PatternSummary
	// AveragedPOI is the Table 3 row of this cluster.
	AveragedPOI poi.Counts
	// Representative is the dataset row of the most representative tower
	// (Section 5.2), or -1.
	Representative int
}

// Result is the full outcome of the analysis.
type Result struct {
	// Dataset is the input dataset (not copied): whoever retains the Result
	// retains the dataset's raw and normalised matrices with it.
	Dataset *pipeline.Dataset
	// Dendrogram is the full merge tree of the pattern identifier.
	Dendrogram *cluster.Dendrogram
	// Assignment maps dataset rows to cluster labels.
	Assignment *cluster.Assignment
	// DBICurve is the metric tuner's Davies–Bouldin sweep (Figure 6a).
	DBICurve []cluster.DBICurvePoint
	// OptimalK is the cluster count selected by the metric tuner (or
	// ForceK when set).
	OptimalK int
	// Silhouette is the mean silhouette coefficient of Assignment, or -1
	// when it is undefined (a single cluster). It is reduced from the same
	// distance matrix the pattern identifier agglomerated over, so at
	// Precision Float32 it measures the once-rounded distances the
	// clustering saw rather than a float64 recompute: low-order digits
	// differ from the Float64 tier, verdicts drawn from it do not.
	Silhouette float64
	// Clusters describes each cluster; index matches assignment labels.
	Clusters []ClusterView
	// ClusterLabels[c] is the functional region of cluster c.
	ClusterLabels []urban.Region
	// TowerRegions[i] is the functional region inferred for dataset row i.
	TowerRegions []urban.Region
	// TowerPOI[i] is the raw POI count around dataset row i's tower.
	TowerPOI []poi.Counts
	// Features[i] is the frequency-domain feature of dataset row i.
	Features []freqdomain.Features
	// Clock converts dataset slots to wall-clock time.
	Clock timedomain.Clock
	// Labeling carries the full labelling diagnostics (Table 3 matrix,
	// dominance).
	Labeling *label.Result
	// NMF is the non-negative factorisation of the raw traffic matrix,
	// present only when Options.NMFRank enabled the stage.
	NMF *nmf.Result
	// DominantBasis[i] is the largest-weight NMF basis of dataset row i —
	// the hard clustering induced by the factorisation. Nil unless the NMF
	// stage ran.
	DominantBasis []int
}

// AnalyzeContext runs the full pipeline on a vectorised dataset: clustering
// with the metric tuner, POI labelling, time-domain characterisation and
// frequency-domain feature extraction. Cancellation is threaded through
// every modeling stage: the clustering distance kernels, the metric tuner's
// per-K sweep and the NMF update iterations all observe ctx at their
// natural work boundaries, and a cancelled analysis returns ctx.Err()
// (possibly wrapped with the failing stage) with every worker pool
// drained. A Background context costs nothing.
func AnalyzeContext(ctx context.Context, ds *pipeline.Dataset, pois []poi.POI, opts Options) (*Result, error) {
	if ds == nil {
		return nil, errors.New("core: nil dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid dataset: %w", err)
	}
	opts = opts.withDefaults()
	if ds.Days%7 != 0 {
		return nil, fmt.Errorf("core: dataset covers %d days; whole weeks are required for frequency analysis", ds.Days)
	}
	// The float64 traffic matrices: the dataset's own buffers when its rows
	// are views of one (aliased, not copied), packed copies otherwise.
	norm, err := linalg.RowsMatrix(ds.Normalized)
	if err != nil {
		return nil, fmt.Errorf("core: invalid dataset: %w", err)
	}
	raw, err := linalg.RowsMatrix(ds.Raw)
	if err != nil {
		return nil, fmt.Errorf("core: invalid dataset: %w", err)
	}
	// The modeling stage runs one generic implementation at the selected
	// element type.
	var res *Result
	switch opts.Precision {
	case Float64:
		res, err = model(ctx, norm, raw, opts)
	case Float32:
		// Narrow the traffic matrices here, once per analysis: this is the
		// tier's one precision loss, every float32 kernel reads these
		// copies, and nothing is written back to or cached on the dataset.
		// Only NMF reads the raw matrix, so it is narrowed only for NMF.
		var raw32 *linalg.Matrix32
		if opts.NMFRank != 0 {
			raw32 = linalg.Narrow(raw)
		}
		res, err = model(ctx, linalg.Narrow(norm), raw32, opts)
	default:
		return nil, fmt.Errorf("core: unknown precision %v", opts.Precision)
	}
	if err != nil {
		return nil, err
	}
	assign := res.Assignment
	clock := timedomain.Clock{Start: ds.Start, SlotMinutes: ds.SlotMinutes}

	// Geographical context: POI counting and cluster labelling. The serial
	// stages between the cancellable kernels check ctx first, so a
	// cancelled analysis cannot start a new stage.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	counter, err := poi.NewCounter(pois, poi.DefaultRadiusMeters)
	if err != nil {
		return nil, fmt.Errorf("core: indexing POIs: %w", err)
	}
	towerPOI := counter.CountAll(ds.Locations, poi.DefaultRadiusMeters)
	members := assign.Members()
	labeling, err := label.LabelClusters(towerPOI, members)
	if err != nil {
		return nil, fmt.Errorf("core: labelling clusters: %w", err)
	}
	towerRegions, err := label.TowerLabels(labeling.Labels, assign.Labels)
	if err != nil {
		return nil, fmt.Errorf("core: expanding labels: %w", err)
	}

	// Frequency-domain features and representative towers. One FFT plan is
	// built (or drawn from the pool) for the dataset's slot count and
	// threaded through every spectral stage.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, err := dsp.AcquirePlan(ds.NumSlots())
	if err != nil {
		return nil, fmt.Errorf("core: FFT plan: %w", err)
	}
	defer plan.Release()
	features, err := freqdomain.ExtractPlanContext(ctx, plan, ds.Normalized, ds.Days)
	if err != nil {
		return nil, fmt.Errorf("core: frequency features: %w", err)
	}
	reps, err := freqdomain.RepresentativeTowers(features, assign, opts.RepOptions)
	if err != nil {
		return nil, fmt.Errorf("core: representative towers: %w", err)
	}

	// Per-cluster views.
	centroidMat, err := cluster.CentroidsMat(norm, assign)
	if err != nil {
		return nil, fmt.Errorf("core: centroids: %w", err)
	}
	centroids := centroidMat.RowViews()
	clusters := make([]ClusterView, assign.K)
	for c := 0; c < assign.K; c++ {
		view := ClusterView{
			Index:          c,
			Region:         labeling.Labels[c],
			Members:        members[c],
			Share:          float64(len(members[c])) / float64(ds.NumTowers()),
			Centroid:       centroids[c],
			Representative: reps[c],
			AveragedPOI:    labeling.AveragedPOI[c],
		}
		if len(members[c]) > 0 {
			agg, err := ds.AggregateRaw(members[c])
			if err != nil {
				return nil, fmt.Errorf("core: aggregating cluster %d: %w", c, err)
			}
			view.AggregateRaw = agg
			summary, err := timedomain.Summarize(agg, clock, smoothWindowSlots)
			if err != nil {
				return nil, fmt.Errorf("core: summarising cluster %d: %w", c, err)
			}
			view.TimeSummary = summary
		}
		clusters[c] = view
	}

	res.Dataset = ds
	res.Clusters = clusters
	res.ClusterLabels = labeling.Labels
	res.TowerRegions = towerRegions
	res.TowerPOI = towerPOI
	res.Features = features
	res.Clock = clock
	res.Labeling = labeling
	return res, nil
}

// model runs the modeling stage at one element type: the pattern identifier
// (hierarchical clustering of the normalised vectors), the metric tuner
// (Davies–Bouldin sweep, unless K is forced) and the optional NMF
// decomposition. It fills the Dendrogram, DBICurve, OptimalK, Assignment,
// Silhouette, NMF and DominantBasis fields of the result. At float32 the
// kernels run on the narrowed matrices; the agglomeration, index
// statistics and all reported values are float64 either way.
func model[F linalg.Float](ctx context.Context, norm, raw *linalg.Mat[F], opts Options) (*Result, error) {
	towers, slots := norm.Rows, norm.Cols

	// The pairwise distances are computed once, parallelised across
	// opts.Workers goroutines, and serve both stages that need them: the
	// pattern identifier's NN-chain agglomeration here and the silhouette of
	// the selected cut below. dist is not referenced after that, so the
	// decomposition stages and the published result never pin it.
	dist, err := cluster.DistancesMatCtx(ctx, norm, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: clustering: %w", err)
	}
	dendro, err := dist.HierarchicalCtx(ctx, opts.Linkage)
	if err != nil {
		return nil, fmt.Errorf("core: clustering: %w", err)
	}
	res := &Result{Dendrogram: dendro, Silhouette: -1}

	// Metric tuner: Davies–Bouldin sweep (unless K is forced).
	maxK := min(opts.MaxClusters, towers)
	minK := min(minClusters, maxK)
	if opts.ForceK > 0 {
		res.OptimalK = opts.ForceK
		if opts.ForceK > towers {
			return nil, fmt.Errorf("core: ForceK=%d exceeds %d towers", opts.ForceK, towers)
		}
		if minK >= 2 && maxK >= minK && towers > maxK {
			// Still compute the curve for reporting when feasible.
			res.DBICurve, err = cluster.DBICurveMatCtx(ctx, norm, dendro, minK, maxK, opts.Workers)
			if err != nil {
				return nil, fmt.Errorf("core: DBI curve: %w", err)
			}
		}
	} else {
		res.OptimalK, res.DBICurve, err = cluster.OptimalKMatCtx(ctx, norm, dendro, minK, maxK, opts.Workers)
		if err != nil {
			return nil, fmt.Errorf("core: metric tuner: %w", err)
		}
	}
	k := res.OptimalK
	res.Assignment, err = dendro.CutK(k)
	if err != nil {
		return nil, fmt.Errorf("core: cutting dendrogram: %w", err)
	}
	if sil, err := dist.Silhouette(res.Assignment); err == nil {
		res.Silhouette = sil
	}

	// Optional NMF basis extraction on the raw traffic matrix (the
	// related-work baseline the paper's convex combination is compared
	// against), deterministic under opts.Seed for any opts.Workers value.
	if opts.NMFRank != 0 {
		rank := opts.NMFRank
		if rank == NMFRankAuto {
			rank = min(k, slots)
		}
		res.NMF, err = nmf.FactorizeMatContext(ctx, raw, nmf.Options{
			Rank:    rank,
			Seed:    opts.Seed,
			Workers: opts.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("core: NMF decomposition: %w", err)
		}
		res.DominantBasis = res.NMF.DominantBasis()
	}
	return res, nil
}

// ClusterByRegion returns the cluster view labelled with the given region,
// or an error if no cluster carries that label. When several clusters share
// the label (possible for comprehensive), the largest is returned.
func (r *Result) ClusterByRegion(region urban.Region) (*ClusterView, error) {
	best := -1
	for i, c := range r.Clusters {
		if c.Region != region {
			continue
		}
		if best == -1 || len(c.Members) > len(r.Clusters[best].Members) {
			best = i
		}
	}
	if best == -1 {
		return nil, fmt.Errorf("core: no cluster labelled %v", region)
	}
	return &r.Clusters[best], nil
}

// PrimaryComponents returns the frequency features of the representative
// towers of the four primary regions in canonical order (resident,
// transport, office, entertainment). It fails if any primary region is
// missing from the labelling.
func (r *Result) PrimaryComponents() ([]freqdomain.Features, error) {
	out := make([]freqdomain.Features, 0, len(urban.PrimaryRegions))
	for _, region := range urban.PrimaryRegions {
		view, err := r.ClusterByRegion(region)
		if err != nil {
			return nil, err
		}
		if view.Representative < 0 || view.Representative >= len(r.Features) {
			return nil, fmt.Errorf("core: cluster %v has no representative tower", region)
		}
		out = append(out, r.Features[view.Representative])
	}
	return out, nil
}

// DecomposeTower expresses dataset row i as a convex combination of the
// four primary components (Section 5.3) and returns the decomposition plus
// the tower's NTF-IDF for comparison (Table 6).
func (r *Result) DecomposeTower(row int) (*freqdomain.Decomposition, poi.Counts, error) {
	if row < 0 || row >= len(r.Features) {
		return nil, poi.Counts{}, fmt.Errorf("core: row %d out of range [0,%d)", row, len(r.Features))
	}
	primaries, err := r.PrimaryComponents()
	if err != nil {
		return nil, poi.Counts{}, err
	}
	dec, err := freqdomain.Decompose(r.Features[row], primaries)
	if err != nil {
		return nil, poi.Counts{}, err
	}
	ntf, err := poi.NTFIDF(r.TowerPOI)
	if err != nil {
		return nil, poi.Counts{}, err
	}
	return dec, ntf[row], nil
}
