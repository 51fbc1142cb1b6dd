package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// seriesDigest is the SHA-256 over each series' TowerID followed by the
// Float64bits of every slot, all little-endian uint64s.
func seriesDigest(series []TowerSeries) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, s := range series {
		put(uint64(s.TowerID))
		for _, v := range s.Bytes {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestConfigs are the cities whose series digests were computed at
// commit fd4e98b — before the shape table, the per-tower intensity table
// and the parallel GenerateSeries — and are never regenerated. They cover
// the default granularity, a 30-minute slot with a trace starting on a
// Saturday, and a city of comprehensive towers only (every slot a
// four-region mixture).
var digestConfigs = []struct {
	name   string
	config func() Config
	want   string
}{
	{"default-400x14-seed1", func() Config {
		c := DefaultConfig()
		c.Towers, c.Days, c.Seed = 400, 14, 1
		return c
	}, "e5a3465b5c2b2b52a2846bc0c3e0d32cc7c5dc5c01960472a72ad3b4ee8e7471"},
	{"slot30-saturday-150x9-seed3", func() Config {
		c := DefaultConfig()
		c.Towers, c.Days, c.Seed, c.SlotMinutes = 150, 9, 3, 30
		c.Start = time.Date(2014, 8, 2, 0, 0, 0, 0, time.UTC)
		return c
	}, "276485bf55f62cb2aae1400b5a29d83a39fda7a3a5ce3ace5c3f9c80953b0268"},
	{"comprehensive-120x10-seed5", func() Config {
		c := DefaultConfig()
		c.Towers, c.Days, c.Seed = 120, 10, 5
		c.Shares = map[Region]float64{Comprehensive: 1}
		return c
	}, "a98d88b6d8d2e73b9c6cc1f22712391dade8c849c93e2434bc4d25ab429c0d48"},
}

// The series are bit-identical to the parent commit's, GenerateSeries is
// the serial per-tower loop whatever the parallelism, and the CDR log
// derived from the series is record for record the parent's.
func TestGenerateSeriesMatchesParentDigest(t *testing.T) {
	for _, tc := range digestConfigs {
		t.Run(tc.name, func(t *testing.T) {
			city, err := GenerateCity(tc.config())
			if err != nil {
				t.Fatal(err)
			}
			series, err := city.GenerateSeries()
			if err != nil {
				t.Fatal(err)
			}
			if got := seriesDigest(series); got != tc.want {
				t.Errorf("series digest = %s, want %s", got, tc.want)
			}
		})
	}
	t.Run("serial-loop", testGenerateSeriesMatchesSerialLoop)
	t.Run("log-digests", testLogsMatchParentDigest)
}

func testGenerateSeriesMatchesSerialLoop(t *testing.T) {
	city, err := GenerateCity(digestConfigs[1].config())
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]TowerSeries, len(city.Towers))
	for i := range city.Towers {
		if serial[i], err = city.GenerateTowerSeries(i); err != nil {
			t.Fatal(err)
		}
	}
	want := seriesDigest(serial)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		series, err := city.GenerateSeries()
		if err != nil {
			t.Fatal(err)
		}
		if got := seriesDigest(series); got != want {
			t.Errorf("GOMAXPROCS=%d: GenerateSeries digest %s, serial loop %s", procs, got, want)
		}
	}
	// Like the serial loop, a failure reports the lowest failing tower.
	city.Towers[7].Mix, city.Towers[90].Mix = [4]float64{}, [4]float64{}
	if _, err := city.GenerateSeries(); err == nil || !strings.Contains(err.Error(), "tower 7:") {
		t.Errorf("two broken towers: err = %v, want tower 7's", err)
	}
}

// recordsDigest is the SHA-256 over every field of every record, in
// stream order: UserID, the Start and End instants in Unix nanoseconds,
// TowerID, the Address length and bytes, Bytes and the Tech string length
// and bytes, all integers little-endian uint64s.
func recordsDigest(recs []trace.Record) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, r := range recs {
		put(uint64(r.UserID))
		put(uint64(r.Start.UnixNano()))
		put(uint64(r.End.UnixNano()))
		put(uint64(r.TowerID))
		str(r.Address)
		put(uint64(r.Bytes))
		str(string(r.Tech))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// testLogsMatchParentDigest pins the CDR stream of both emission orders,
// a lower per-slot record cap and a 30-minute, Saturday-start city: record
// counts and digests were taken at commit e7aed93, where the stream was a
// push generator inside a coroutine, and are never regenerated.
func testLogsMatchParentDigest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		config func() Config
		opts   LogOptions
		count  int
		want   string
	}{
		{"tower-major", tinyConfig, LogOptions{}, 157545, "ce2b4bfc59e46b9c522470934a47314b37afa5cc4e9cb3481855c0a3ea6fe2c0"},
		{"time-major", tinyConfig, LogOptions{TimeMajor: true}, 157545, "4b795a56ff47e9bef9727691a7032e3776d07252987e69d8634b24b5951455d1"},
		{"max-2-per-slot", tinyConfig, LogOptions{MaxRecordsPerSlot: 2}, 94237, "e9a8f84197ea5e69b8b0cc540fc07b6534c5b39a843a62a4bb542eb3a3d11a15"},
		{"slot30-saturday", digestConfigs[1].config, LogOptions{}, 168899, "8a3495438913a424bbd21db4b21677dd51270cd2babdca0ce08b5bcd57e2e643"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			city, err := GenerateCity(tc.config())
			if err != nil {
				t.Fatal(err)
			}
			series, err := city.GenerateSeries()
			if err != nil {
				t.Fatal(err)
			}
			recs, err := trace.Collect(city.LogSource(series, tc.opts))
			if err != nil {
				t.Fatal(err)
			}
			if got := recordsDigest(recs); len(recs) != tc.count || got != tc.want {
				t.Errorf("%d records, digest %s; want %d, %s", len(recs), got, tc.count, tc.want)
			}
		})
	}
}
