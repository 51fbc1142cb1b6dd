package synth

import (
	"testing"
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

func TestBuildDatasetTrimsToWholeWeeks(t *testing.T) {
	cfg := tinyConfig()
	cfg.Days = 31
	cfg.Towers = 12
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := city.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Days != 28 {
		t.Errorf("31 days should trim to 28, got %d", ds.Days)
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
