package poi_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/poi"
	"repro/internal/synth"
)

// towerPOIDigest is the SHA-256 over the Float64bits of every count of
// every row, little-endian.
func towerPOIDigest(rows []poi.Counts) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTowerPOIMatchesParentDigest pins the per-tower POI counts of seeded
// synthetic cities — the counts §3.3.1 labels the clusters from — to
// digests computed at commit f08e9d6, before the flat index; they are
// never regenerated. Each city is counted at the paper's 200 m and at
// 500 m, a radius larger than an index cell, and the queries run at every
// tower and at every fiftieth POI (a centre that coincides with an
// indexed point).
func TestTowerPOIMatchesParentDigest(t *testing.T) {
	cases := []struct {
		name   string
		config func() synth.Config
		want   string
	}{
		{"towers2400-seed1", func() synth.Config {
			c := synth.DefaultConfig()
			c.Towers, c.Seed = 2400, 1
			return c
		}, "398d75ed3a0eaeff9d1ee8fedb532bff66ce3b28d1105da873bef53fe39d1a25"},
		{"towers300-seed7-poiscale3", func() synth.Config {
			c := synth.DefaultConfig()
			c.Towers, c.Seed, c.POIScale = 300, 7, 3
			return c
		}, "2c649ea8d2aa38aa898ae98bcf397f0de2d8815da86e48f9dfb69860c7610841"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			city, err := synth.GenerateCity(tc.config())
			if err != nil {
				t.Fatal(err)
			}
			centers := make([]geo.Point, 0, len(city.Towers)+len(city.POIs)/50)
			for _, tw := range city.Towers {
				centers = append(centers, tw.Location)
			}
			for i := 0; i < len(city.POIs); i += 50 {
				centers = append(centers, city.POIs[i].Location)
			}
			counter, err := poi.NewCounter(city.POIs, poi.DefaultRadiusMeters)
			if err != nil {
				t.Fatal(err)
			}
			rows := counter.CountAll(centers, poi.DefaultRadiusMeters)
			rows = append(rows, counter.CountAll(centers, 500)...)
			if got := towerPOIDigest(rows); got != tc.want {
				t.Errorf("TowerPOI digest over %d POIs, %d centres = %s, want %s", len(city.POIs), len(centers), got, tc.want)
			}
		})
	}
}

// BenchmarkCounterTowerPOI is the POI stage of one remodel cycle at 2 400
// towers: index the city's POIs and count them around every tower.
func BenchmarkCounterTowerPOI(b *testing.B) {
	c := synth.DefaultConfig()
	c.Towers, c.Seed = 2400, 1
	city, err := synth.GenerateCity(c)
	if err != nil {
		b.Fatal(err)
	}
	centers := make([]geo.Point, len(city.Towers))
	for i, tw := range city.Towers {
		centers[i] = tw.Location
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		counter, err := poi.NewCounter(city.POIs, poi.DefaultRadiusMeters)
		if err != nil {
			b.Fatal(err)
		}
		counter.CountAll(centers, poi.DefaultRadiusMeters)
	}
}
