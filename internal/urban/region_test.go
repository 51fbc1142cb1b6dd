package urban

import (
	"math"
	"testing"
)

func TestRegionString(t *testing.T) {
	want := map[Region]string{
		Resident:      "resident",
		Transport:     "transport",
		Office:        "office",
		Entertainment: "entertainment",
		Comprehensive: "comprehensive",
		Region(42):    "region(42)",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("String(%d) = %q, want %q", int(r), r.String(), s)
		}
	}
}

func TestRegionsOrderMatchesPaper(t *testing.T) {
	// The paper numbers clusters 1-5 as resident, transport, office,
	// entertainment, comprehensive; the enum order must match so cluster
	// indices translate directly.
	if Regions[0] != Resident || Regions[1] != Transport || Regions[2] != Office ||
		Regions[3] != Entertainment || Regions[4] != Comprehensive {
		t.Error("Regions order does not match the paper")
	}
	if len(PrimaryRegions) != 4 || PrimaryRegions[3] != Entertainment {
		t.Error("PrimaryRegions should be the four single-function regions")
	}
}

func TestDefaultShares(t *testing.T) {
	shares := DefaultShares()
	var total float64
	for _, r := range Regions {
		s, ok := shares[r]
		if !ok {
			t.Errorf("missing share for %v", r)
		}
		if s <= 0 || s >= 1 {
			t.Errorf("share for %v = %g out of range", r, s)
		}
		total += s
	}
	if math.Abs(total-1.0001) > 0.01 {
		t.Errorf("shares sum to %g, want ~1", total)
	}
	// Office is the largest cluster, transport the smallest (Table 1).
	if shares[Office] <= shares[Resident] || shares[Transport] >= shares[Entertainment] {
		t.Error("share ordering does not match Table 1")
	}
}
