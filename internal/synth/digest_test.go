package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
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
// derived from the series keeps its length.
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
	t.Run("log-counts", testGenerateLogsCountMatchesParent)
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

// testGenerateLogsCountMatchesParent counts both emission orders; the
// counts were taken at the parent commit alongside the digests above.
func testGenerateLogsCountMatchesParent(t *testing.T) {
	city, err := GenerateCity(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	series, err := city.GenerateSeries()
	if err != nil {
		t.Fatal(err)
	}
	logs, err := city.GenerateLogs(series, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := city.LogSource(series, LogOptions{TimeMajor: true})
	defer src.Close()
	streamed := 0
	buf := make([]trace.Record, 1024)
	for {
		n, err := src.NextBatch(buf)
		streamed += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	const wantLogs, wantStreamed = 157545, 157545
	if len(logs) != wantLogs || streamed != wantStreamed {
		t.Errorf("records: GenerateLogs %d, LogSource %d; want %d, %d", len(logs), streamed, wantLogs, wantStreamed)
	}
}
