package anomaly

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/synth"
)

// spikedCity returns the traffic of a seeded synth city of `towers` towers
// over 14 days at the given slot width, with a surge, an outage or nothing
// injected per tower (the tower index decides).
func spikedCity(t testing.TB, towers, slotMinutes int, spiked bool) []linalg.Vector {
	t.Helper()
	cfg := synth.SmallConfig()
	cfg.Towers, cfg.Days, cfg.SlotMinutes, cfg.Seed = towers, 14, slotMinutes, 25
	city, err := synth.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		t.Fatal(err)
	}
	perDay := cfg.SlotsPerDay()
	traffic := make([]linalg.Vector, len(series))
	for i, s := range series {
		traffic[i] = linalg.Vector(s.Bytes)
		if !spiked {
			continue
		}
		at := (i%cfg.Days)*perDay + (i*7)%perDay
		switch i % 3 {
		case 0: // surge of an hour
			for s := at; s < min(at+perDay/24, len(traffic[i])); s++ {
				traffic[i][s] *= 4 + float64(i%5)
			}
		case 1: // outage of two hours
			for s := at; s < min(at+perDay/12, len(traffic[i])); s++ {
				traffic[i][s] *= 0.01
			}
		}
	}
	return traffic
}

// parentDetectAllDigest is the SHA-256 of every Scale, Bins and Anomaly of
// DetectAll over spikedCity(300, 10, true), computed at commit 6d6c27f —
// before Report lost Expected/Residual, the reconstruction moved onto the
// worker scratch and the bin list came from dsp.HarmonicBins — and never
// regenerated.
const parentDetectAllDigest = "2260396039928870153d757ecd6f5966ffc9b1ffc9519cdbac7aa47582b4f8c6"

// The sweep's published output is bit-identical to the parent commit's for
// every worker count.
func TestDetectAllMatchesParentDigest(t *testing.T) {
	traffic := spikedCity(t, 300, 10, true)
	for _, workers := range []int{1, 2, 4} {
		reports, err := DetectAllContext(t.Context(), traffic, 14, Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		put := func(x uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
		flagged := 0
		for _, r := range reports {
			put(math.Float64bits(r.Scale))
			put(uint64(len(r.Bins)))
			for _, b := range r.Bins {
				put(uint64(b))
			}
			put(uint64(len(r.Anomalies)))
			for _, a := range r.Anomalies {
				put(uint64(a.Slot))
				put(math.Float64bits(a.Observed))
				put(math.Float64bits(a.Expected))
				put(math.Float64bits(a.Score))
			}
			flagged += len(r.Anomalies)
		}
		if flagged == 0 {
			t.Fatal("the spiked city flagged nothing: the digest would pin an empty sweep")
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != parentDetectAllDigest {
			t.Errorf("workers %d: digest %s over %d flagged slots, parent commit %s", workers, got, flagged, parentDetectAllDigest)
		}
	}
}

// A sweep allocates per tower only what the report keeps — the bin list
// and the flagged slots — never a vector of the traffic's length: the
// marginal bytes of a tower (a 2T-tower sweep minus a T-tower one, so the
// per-worker scratch and the pooled plan cancel) stay far below one such
// vector, and do not grow when the slot count doubles.
func TestDetectAllAllocatesPerTowerNotPerSlot(t *testing.T) {
	const towers = 40
	// The least of a few sweeps: a GC that empties the plan pool mid-test
	// only ever adds bytes (a rebuilt plan).
	sweepBytes := func(traffic []linalg.Vector) uint64 {
		least := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := DetectAllContext(t.Context(), traffic, 14, Options{}, 1); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	perTower := map[int]float64{}
	for _, slotMinutes := range []int{20, 10} {
		traffic := spikedCity(t, 2*towers, slotMinutes, false)
		half, full := sweepBytes(traffic[:towers]), sweepBytes(traffic)
		slots := len(traffic[0])
		perTower[slots] = (float64(full) - float64(half)) / towers
		if vector := float64(8 * slots); perTower[slots] > vector/4 {
			t.Errorf("%d slots: %.0f B per tower, a published vector would be %.0f B", slots, perTower[slots], vector)
		}
	}
	t.Logf("bytes per tower: %v", perTower)
	if perTower[2016] > perTower[1008]+256 {
		t.Errorf("bytes per tower grew with the slot count: %v", perTower)
	}
}
