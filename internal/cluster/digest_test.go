package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/linalg"
	"repro/internal/synth"
)

// The CPUID gates of linalg's assembly kernels. linalg exports no switch
// for them, so the digest tests reach the two variables by name to pin the
// portable kernels' bits as well as the assembly ones.
//
//go:linkname linalgUseAsm repro/internal/linalg.useAsm
var linalgUseAsm bool

//go:linkname linalgUseAsmF32 repro/internal/linalg.useAsmF32
var linalgUseAsmF32 bool

// onKernelPaths runs fn on the active kernel path and, where that is the
// assembly one, once more with every linalg kernel forced onto portable Go.
func onKernelPaths(t *testing.T, fn func(t *testing.T, path string)) {
	t.Run("active", func(t *testing.T) {
		if linalgUseAsm && linalgUseAsmF32 {
			fn(t, "asm")
		} else {
			fn(t, "portable")
		}
	})
	if linalgUseAsm || linalgUseAsmF32 {
		a, a32 := linalgUseAsm, linalgUseAsmF32
		linalgUseAsm, linalgUseAsmF32 = false, false
		defer func() { linalgUseAsm, linalgUseAsmF32 = a, a32 }()
		t.Run("portable", func(t *testing.T) { fn(t, "portable") })
	}
}

// digestCity returns the z-scored rows of a seeded synth city of 640
// towers over 7 days of 30-minute slots: the pattern identifier's input.
func digestCity(t testing.TB) []linalg.Vector {
	t.Helper()
	cfg := synth.SmallConfig()
	cfg.Towers, cfg.Days, cfg.SlotMinutes, cfg.Seed = 640, 7, 30, 48
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := city.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	return ds.Normalized
}

// gridPoints draws n points on a 3×3×3 integer grid: most pairwise
// distances tie, so the agglomeration leans on its tie rule at every step.
func gridPoints(n int) []linalg.Vector {
	rng := rand.New(rand.NewSource(48))
	points := make([]linalg.Vector, n)
	for i := range points {
		points[i] = linalg.Vector{float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(3))}
	}
	return points
}

// oracleDendrogram agglomerates points over the per-pair oracle distances,
// which run no assembly kernel, so the merges are the NN-chain's alone.
func oracleDendrogram(t testing.TB, points []linalg.Vector) *Dendrogram {
	t.Helper()
	dist, err := condensedDistancesOracle(points)
	if err != nil {
		t.Fatal(err)
	}
	dendro, err := agglomerate(context.Background(), dist, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	return dendro
}

// putBits writes x into h, little-endian.
func putBits(h hash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}

// parentAgglomerateDigests are the SHA-256 of A, B, Size and the Distance
// bits of every merge, computed at commit dc0c960 — before the NN-chain
// scan ran through per-row offsets — on amd64, and never regenerated.
var parentAgglomerateDigests = map[string]string{
	"city640": "0dae5959a81fddaf74f672a9a923a9028e090a62f859b4363d78568fc5c9a122",
	"grid300": "34190fe50c58457de7110cb62f423dfa9d72783a7c9220339247242b1a55e860",
}

// The agglomeration makes the parent commit's merges, bit for bit: on the
// synth city's rows and on grid points whose distances tie.
func TestAgglomerateMatchesParentDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests were taken on amd64; other compilers fuse the oracle's multiply-adds")
	}
	for name, points := range map[string][]linalg.Vector{
		"city640": digestCity(t),
		"grid300": gridPoints(300),
	} {
		dendro := oracleDendrogram(t, points)
		h := sha256.New()
		for _, m := range dendro.Merges {
			putBits(h, uint64(m.A))
			putBits(h, uint64(m.B))
			putBits(h, uint64(m.Size))
			putBits(h, math.Float64bits(m.Distance))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != parentAgglomerateDigests[name] {
			t.Errorf("%s: merge digest %s, parent commit %s", name, got, parentAgglomerateDigests[name])
		}
	}
}

// parentDBICurveDigests are the SHA-256 of K, Threshold bits and DBI bits
// of the k = 2..10 sweep over the synth city's oracle dendrogram, per
// kernel path and precision, computed at commit dc0c960 — before the
// sweep shared its row norms and fanned the cuts out — on amd64, and never
// regenerated.
var parentDBICurveDigests = map[string]string{
	"asm/float64":      "e1e72d98f1f1b218a2ca8c698e4c69050630e566bfedeea08d655b7cb501d534",
	"asm/float32":      "b1d1ac222db3301d474787142a0875c57272b716c67e5522b37f2ac604fe8db3",
	"portable/float64": "c75f3c426012ed60a89a43f0775af3e097bf37803680b0f6c25e5ada003c428e",
	"portable/float32": "1c653160e466a6974d228939f85f4ae2e1b8f40e0092e12c953b35153075eafd",
}

// The metric tuner's curve is the parent commit's, bit for bit, at both
// precisions and for every worker count.
func TestDBICurveMatchesParentDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests were taken on amd64; other compilers fuse the portable multiply-adds")
	}
	points := digestCity(t)
	dendro := oracleDendrogram(t, points)
	x := matOf(t, points)
	onKernelPaths(t, func(t *testing.T, path string) {
		t.Run("float64", func(t *testing.T) { testDBICurveDigest(t, x, dendro, path+"/float64") })
		t.Run("float32", func(t *testing.T) { testDBICurveDigest(t, linalg.Narrow(x), dendro, path+"/float32") })
	})
}

func testDBICurveDigest[F linalg.Float](t *testing.T, x *linalg.Mat[F], dendro *Dendrogram, key string) {
	for _, workers := range []int{1, 2, 0} {
		curve, err := DBICurveMatCtx(context.Background(), x, dendro, 2, 10, workers)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range curve {
			putBits(h, uint64(p.K))
			putBits(h, math.Float64bits(p.Threshold))
			putBits(h, math.Float64bits(p.DBI))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != parentDBICurveDigests[key] {
			t.Errorf("%s workers %d: curve digest %s, parent commit %s", key, workers, got, parentDBICurveDigests[key])
		}
	}
}
