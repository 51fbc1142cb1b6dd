package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/pipeline"
)

func TestBuildDataset(t *testing.T) {
	cfg := tinyConfig()
	cfg.Days = 14
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := city.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTowers() != len(city.Towers) {
		t.Errorf("dataset has %d towers, want %d", ds.NumTowers(), len(city.Towers))
	}
	if ds.Days != 14 {
		t.Errorf("days = %d, want 14", ds.Days)
	}
	if ds.NumSlots() != 14*144 {
		t.Errorf("slots = %d, want %d", ds.NumSlots(), 14*144)
	}
	if err := ds.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Locations line up with the towers.
	for i := 0; i < ds.NumTowers(); i++ {
		row := ds.RowByTowerID(city.Towers[i].ID)
		if row < 0 {
			t.Fatalf("tower %d missing from dataset", city.Towers[i].ID)
		}
		if ds.Locations[row] != city.Towers[i].Location {
			t.Errorf("tower %d location mismatch", city.Towers[i].ID)
		}
	}
}

// datasetDigest is the SHA-256 over the dataset's Days, then each row's
// TowerID, the Float64bits of its location's Lat and Lon, of its Raw slots
// and of its Normalized slots, all little-endian uint64s.
func datasetDigest(ds *pipeline.Dataset) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(ds.Days))
	for i, id := range ds.TowerIDs {
		put(uint64(id))
		put(math.Float64bits(ds.Locations[i].Lat))
		put(math.Float64bits(ds.Locations[i].Lon))
		for _, v := range ds.Raw[i] {
			put(math.Float64bits(v))
		}
		for _, v := range ds.Normalized[i] {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BuildDataset keeps the whole weeks of the trace, or every day of one
// shorter than a week. The digests were taken at commit e7aed93, where the
// dataset was vectorised from a copy of the generated series, and are never
// regenerated.
func TestBuildDatasetTrimsToWholeWeeks(t *testing.T) {
	for _, tc := range []struct {
		days, wantDays int
		want           string
	}{
		{5, 5, "e64c2304ad9896ba6cba6c87ef93c4f7edb4fdbe852fc21c2de4695b9c3f0a48"},
		{7, 7, "369b10d1a51f2dbed4fa5e5d6afb1c7cc30c8743e96a7b7538131c996e4914ec"},
		{14, 14, "1555585ef0fc050286aa08c151f0a402cecf3e7c64bf7eff7da87fc87ce050b6"},
		{31, 28, "453f39cbb10ba517c21290591d49604f5856351fc5e2fe33f4888ae61dd2f10d"},
	} {
		t.Run(fmt.Sprintf("days-%d", tc.days), func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Days = tc.days
			cfg.Towers = 12
			city, err := GenerateCity(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := city.BuildDataset()
			if err != nil {
				t.Fatal(err)
			}
			if ds.Days != tc.wantDays {
				t.Errorf("%d days should trim to %d, got %d", tc.days, tc.wantDays, ds.Days)
			}
			if got := datasetDigest(ds); got != tc.want {
				t.Errorf("dataset digest = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestGroundTruthRegions(t *testing.T) {
	city, err := GenerateCity(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := city.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	truth, err := city.GroundTruthRegions(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != ds.NumTowers() {
		t.Fatalf("truth length %d, want %d", len(truth), ds.NumTowers())
	}
	byID := make(map[int]Region)
	for _, tw := range city.Towers {
		byID[tw.ID] = tw.Region
	}
	for i, r := range truth {
		if byID[ds.TowerIDs[i]] != r {
			t.Errorf("row %d region mismatch", i)
		}
	}
	// A dataset referencing an unknown tower fails.
	bad := *ds
	bad.TowerIDs = append([]int(nil), ds.TowerIDs...)
	bad.TowerIDs[0] = 999999
	if _, err := city.GroundTruthRegions(&bad); err == nil {
		t.Error("unknown tower should fail")
	}
}

func TestTowerInfos(t *testing.T) {
	city, err := GenerateCity(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	infos := city.TowerInfos()
	if len(infos) != len(city.Towers) {
		t.Fatalf("infos = %d, want %d", len(infos), len(city.Towers))
	}
	for i, info := range infos {
		if info.TowerID != city.Towers[i].ID || info.Address != city.Towers[i].Address {
			t.Errorf("info %d metadata mismatch", i)
		}
		if info.Location != city.Towers[i].Location {
			t.Errorf("info %d location mismatch", i)
		}
	}
}
