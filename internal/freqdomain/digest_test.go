package freqdomain

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dsp"
	"repro/internal/synth"
)

// parentRepresentativeDigest is the SHA-256 of every representative index
// of every search in TestRepresentativeTowersMatchesParentDigest, computed
// at commit dc0c960 — before the search ran on inline squared distances —
// on amd64, and never regenerated. The assembly and the portable distance
// kernels (the default radius comes from one) gave the same digest there.
const parentRepresentativeDigest = "afb02b163cbce30f8bfe68df05f49edd3b4e5e8eee566eef5f3cf2b321cc1d23"

// The representative search picks the parent commit's towers: over the
// spectral features of a seeded synth city labelled by ground-truth
// region, plus a two-tower cluster whose members cannot pass the density
// filter (the fallback path) and an empty cluster, at the default and at
// explicit radii, and over the whole city as one cluster (the
// single-cluster corner case).
func TestRepresentativeTowersMatchesParentDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests were taken on amd64; other compilers fuse the portable multiply-adds")
	}
	cfg := synth.SmallConfig()
	cfg.Towers, cfg.Days, cfg.Seed = 640, 14, 48
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := city.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dsp.NewPlan(ds.NumSlots())
	if err != nil {
		t.Fatal(err)
	}
	features, err := ExtractPlanContext(context.Background(), plan, ds.Normalized, ds.Days)
	if err != nil {
		t.Fatal(err)
	}
	regions := &cluster.Assignment{Labels: make([]int, len(features))}
	for i, tw := range city.Towers {
		regions.Labels[i] = int(tw.Region)
		regions.K = max(regions.K, int(tw.Region)+1)
	}
	tiny := regions.K
	regions.Labels[0], regions.Labels[1] = tiny, tiny
	regions.K += 2 // the last label has no member
	whole := &cluster.Assignment{Labels: make([]int, len(features)), K: 1}

	searches := []struct {
		assign *cluster.Assignment
		opts   RepOptions
	}{
		{regions, RepOptions{}},
		{regions, RepOptions{DensityRadius: 0.01}},
		{regions, RepOptions{DensityRadius: 0.05, MinDensity: 5}},
		{regions, RepOptions{DensityRadius: 0.2}},
		{whole, RepOptions{}},
		{whole, RepOptions{DensityRadius: 0.05}},
	}
	h := sha256.New()
	fallback := false
	for _, s := range searches {
		reps, err := RepresentativeTowers(features, s.assign, s.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reps {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(int64(r)))
			h.Write(b[:])
		}
		fallback = fallback || s.assign == regions && (reps[tiny] == 0 || reps[tiny] == 1)
	}
	if !fallback {
		t.Fatal("the two-tower cluster got no representative: the fallback path did not run")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != parentRepresentativeDigest {
		t.Errorf("representatives digest %s, parent commit %s", got, parentRepresentativeDigest)
	}
}
