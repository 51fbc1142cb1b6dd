package serve

// Tests for the generational snapshot store and the crash/chaos
// guarantees of the serve layer: rotation and retention, restore
// fallback past torn and bit-rotted generations, the never-regress
// durability guard (including through Server.Close), recovery after a
// kill mid-ingest, and a fault-injection soak over the whole save path.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/synth"
	"repro/internal/testutil"
	"repro/internal/window"
)

// storeWindow builds a window fed through toDay, for snapshot tests that
// need distinguishable window states.
func storeWindow(tb testing.TB, city *synth.City, series []synth.TowerSeries, days, toDay int) *window.Window {
	tb.Helper()
	w := newTestWindow(tb, city, days)
	feedDays(w, city, series, 0, toDay, nil)
	return w
}

// generationPaths returns the on-disk generation paths, newest first
// (intact or not).
func generationPaths(st *SnapshotStore) []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	seqs, err := st.generations()
	if err != nil {
		return nil
	}
	paths := make([]string, 0, len(seqs))
	for _, seq := range seqs {
		paths = append(paths, st.genPath(seq))
	}
	return paths
}

func TestSnapshotStoreRotationAndRetention(t *testing.T) {
	city, series := testCity(t, 8, 21)
	base := filepath.Join(t.TempDir(), "window.snap")
	st := NewSnapshotStore(base, 2, nil, t.Logf)

	var saved []string
	for day := 8; day <= 12; day++ {
		path, err := st.Save(storeWindow(t, city, series, 7, day))
		if err != nil {
			t.Fatalf("save through day %d: %v", day, err)
		}
		saved = append(saved, path)
	}
	// Sequence numbers grow monotonically: .1 through .5.
	for i, path := range saved {
		if want := fmt.Sprintf("%s.%d", base, i+1); path != want {
			t.Fatalf("save %d went to %s, want %s", i, path, want)
		}
	}
	// Retention keeps only the newest two.
	if got, want := generationPaths(st), []string{base + ".5", base + ".4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("generations after retention: %v, want %v", got, want)
	}
	// Restore yields the newest.
	w, from, err := st.Restore()
	if err != nil || w == nil {
		t.Fatalf("restore: %v, window %v", err, w)
	}
	if from != base+".5" {
		t.Fatalf("restored from %s, want %s", from, base+".5")
	}
	if want := storeWindow(t, city, series, 7, 12).Summary(); w.Summary() != want {
		t.Fatalf("restored summary %+v, want %+v", w.Summary(), want)
	}
}

func TestSnapshotStoreRestoreFallsBackPastDamage(t *testing.T) {
	city, series := testCity(t, 8, 21)
	base := filepath.Join(t.TempDir(), "window.snap")
	st := NewSnapshotStore(base, 3, nil, t.Logf)
	for day := 8; day <= 10; day++ {
		if _, err := st.Save(storeWindow(t, city, series, 7, day)); err != nil {
			t.Fatal(err)
		}
	}

	// Truncate the newest generation (torn write) and bit-flip the next
	// (silent rot); both must be skipped in favour of generation 1.
	damage := func(path string, f func([]byte) []byte) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage(base+".3", func(b []byte) []byte { return b[:len(b)/3] })
	damage(base+".2", func(b []byte) []byte { b[len(b)-4] ^= 0xff; return b })

	fresh := NewSnapshotStore(base, 3, nil, t.Logf)
	w, from, err := fresh.Restore()
	if err != nil || w == nil {
		t.Fatalf("restore: %v, window %v", err, w)
	}
	if from != base+".1" {
		t.Fatalf("restored from %s, want the oldest intact %s", from, base+".1")
	}
	if want := storeWindow(t, city, series, 7, 8).Summary(); w.Summary() != want {
		t.Fatalf("restored summary %+v, want %+v", w.Summary(), want)
	}

	// A save through the fresh store continues the sequence (generation 4)
	// rather than reusing damaged numbers.
	if path, err := st.Save(storeWindow(t, city, series, 7, 11)); err != nil || path != base+".4" {
		t.Fatalf("next save: %s, %v, want %s", path, err, base+".4")
	}
}

func TestSnapshotStoreRestoresLegacyBarePath(t *testing.T) {
	city, series := testCity(t, 8, 21)
	base := filepath.Join(t.TempDir(), "window.snap")
	orig := storeWindow(t, city, series, 7, 9)
	var legacy bytes.Buffer // the pre-generational layout: one file at the bare path
	if err := orig.WriteSnapshot(&legacy); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st := NewSnapshotStore(base, 3, nil, t.Logf)
	w, from, err := st.Restore()
	if err != nil || w == nil {
		t.Fatalf("restore: %v, window %v", err, w)
	}
	if from != base {
		t.Fatalf("restored from %s, want the bare base path", from)
	}
	if w.Summary() != orig.Summary() {
		t.Fatal("legacy restore produced a different window")
	}
}

func TestSnapshotStoreNeverRegresses(t *testing.T) {
	city, series := testCity(t, 8, 21)
	base := filepath.Join(t.TempDir(), "window.snap")
	st := NewSnapshotStore(base, 3, nil, t.Logf)

	newer := storeWindow(t, city, series, 7, 12)
	if _, err := st.Save(newer); err != nil {
		t.Fatal(err)
	}
	before := generationPaths(st)

	// An empty window must never be persisted.
	if _, err := st.Save(newTestWindow(t, city, 7)); err != ErrSnapshotEmpty {
		t.Fatalf("empty save: %v, want ErrSnapshotEmpty", err)
	}
	// An older window must not bury the newer durable generation — even
	// through a fresh store that has to learn the durable clock from disk.
	older := storeWindow(t, city, series, 7, 9)
	for name, s := range map[string]*SnapshotStore{"same store": st, "fresh store": NewSnapshotStore(base, 3, nil, t.Logf)} {
		if _, err := s.Save(older); err != ErrSnapshotStale {
			t.Fatalf("%s: stale save: %v, want ErrSnapshotStale", name, err)
		}
	}
	if after := generationPaths(st); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected saves changed the store: %v -> %v", before, after)
	}
	// An identical (equal-clock) window is also skipped: that state is
	// already durable, and an idle service must not rewrite it forever.
	if _, err := st.Save(storeWindow(t, city, series, 7, 12)); err != ErrSnapshotStale {
		t.Fatalf("equal-clock save: %v, want ErrSnapshotStale", err)
	}
	// A strictly newer window goes through again.
	if _, err := st.Save(storeWindow(t, city, series, 7, 13)); err != nil {
		t.Fatalf("newer save refused: %v", err)
	}
}

// TestServerCloseNeverRegressesSnapshot is the end-to-end form of the
// regression guard: a server whose window is older (or empty) than what
// is already durable must not overwrite it on Close.
func TestServerCloseNeverRegressesSnapshot(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, series := testCity(t, 12, 21)
	base := filepath.Join(t.TempDir(), "window.snap")

	run := func(toDay int) *Server {
		var w *window.Window
		if toDay > 0 {
			w = storeWindow(t, city, series, 14, toDay)
		} else {
			w = newTestWindow(t, city, 14)
		}
		cfg := testConfig(city, w)
		cfg.SnapshotPath = base
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(context.Background())
		return srv
	}

	srv1 := run(15)
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	durable, err := os.ReadFile(base + ".1")
	if err != nil {
		t.Fatalf("first close wrote no generation: %v", err)
	}

	// An "operator mistake" restart against the same snapshot dir with an
	// older window, and one with an empty window.
	for _, toDay := range []int{9, 0} {
		srv := run(toDay)
		if err := srv.Close(); err != nil {
			t.Fatalf("close with toDay=%d: %v", toDay, err)
		}
		if srv.met.snapshotSkips.Load() != 1 {
			t.Fatalf("close with toDay=%d did not record a snapshot skip", toDay)
		}
	}
	// The durable generation is untouched and still the newest.
	got, err := os.ReadFile(base + ".1")
	if err != nil || string(got) != string(durable) {
		t.Fatalf("durable generation changed: %v", err)
	}
	st := NewSnapshotStore(base, 3, nil, t.Logf)
	if w, from, err := st.Restore(); err != nil || from != base+".1" {
		t.Fatalf("restore: %v from %s, want %s", err, from, base+".1")
	} else if want := storeWindow(t, city, series, 14, 15).Summary(); w.Summary() != want {
		t.Fatalf("restored summary %+v, want %+v", w.Summary(), want)
	}
}

// crash simulates a kill: the background loops are cancelled and drained
// but no final snapshot is written (Close is what a *clean* shutdown
// does; a SIGKILL'd process gets nothing).
func crash(s *Server) {
	s.mu.Lock()
	cancel := s.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.wg.Wait()
	close(s.done)
}

// TestServerKillMidIngestRecoversDurableGeneration is the kill-mid-ingest
// → restart → recover property: everything ingested after the last
// durable generation dies with the process, and the restarted service
// models exactly the last durable window state.
func TestServerKillMidIngestRecoversDurableGeneration(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	city, series := testCity(t, 20, 21)
	base := filepath.Join(t.TempDir(), "window.snap")

	w1 := storeWindow(t, city, series, 14, 15)
	cfg := testConfig(city, w1)
	cfg.SnapshotPath = base
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start(context.Background())
	if err := srv1.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A periodic snapshot fires (driven directly for determinism)...
	if err := srv1.saveSnapshot(); err != nil {
		t.Fatal(err)
	}
	// ...then more traffic arrives that will never be snapshotted,
	// because the process is killed mid-ingest.
	feedDays(w1, city, series, 15, 17, nil)
	if err := srv1.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	crash(srv1)

	// Restart against the same snapshot directory.
	st := NewSnapshotStore(base, 3, nil, t.Logf)
	w2, from, err := st.Restore()
	if err != nil || w2 == nil {
		t.Fatalf("restore after kill: %v, window %v", err, w2)
	}
	if from != base+".1" {
		t.Fatalf("restored from %s, want %s", from, base+".1")
	}
	w2.SetLocations(city.TowerInfos())
	srv2, err := New(testConfig(city, w2))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The recovered model must match a model built from the pre-kill
	// durable state — day 15, not day 17.
	wRef := storeWindow(t, city, series, 14, 15)
	srvRef, err := New(testConfig(city, wRef))
	if err != nil {
		t.Fatal(err)
	}
	if err := srvRef.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	m2, mRef := srv2.model(), srvRef.model()
	if !reflect.DeepEqual(m2.raw, mRef.raw) {
		t.Fatal("recovered window differs from the durable generation")
	}
	if m2.K != mRef.K || !reflect.DeepEqual(m2.towers, mRef.towers) {
		t.Fatal("recovered model clusters differently than the durable generation")
	}
	if m2.WindowTo.Equal(srv1.model().WindowTo) {
		t.Fatal("recovered model claims the post-kill window end; lost data went unnoticed")
	}
}

// TestSnapshotStoreChaosSoak drives the save path through a byzantine
// filesystem — short writes, silent corruption, failed renames and
// fsyncs — and asserts the two load-bearing properties after every
// attempt: a clean-filesystem restore always yields the newest
// *successfully verified* state, and no fault ever makes the store
// regress or serve damaged bytes.
func TestSnapshotStoreChaosSoak(t *testing.T) {
	city, series := testCity(t, 8, 21)
	for _, seed := range []int64{1, 2, 3, 4} {
		base := filepath.Join(t.TempDir(), "window.snap")
		ffs := faultinject.NewFS(faultinject.FSProfile{
			Seed:           seed,
			ShortWriteProb: 0.25,
			CorruptProb:    0.25,
			RenameFailProb: 0.15,
			SyncFailProb:   0.15,
		})
		st := NewSnapshotStore(base, 2, ffs, t.Logf)

		lastGood := -1 // toDay of the newest verified save
		faulted := 0
		for toDay := 8; toDay <= 16; toDay++ {
			w := storeWindow(t, city, series, 7, toDay)
			if _, err := st.Save(w); err != nil {
				faulted++
				t.Logf("seed %d day %d: save faulted: %v", seed, toDay, err)
			} else {
				lastGood = toDay
			}
			// Invariant: a restore through the *clean* filesystem finds
			// exactly the newest verified state, regardless of the faults.
			if lastGood < 0 {
				continue
			}
			got, _, err := NewSnapshotStore(base, 2, nil, t.Logf).Restore()
			if err != nil || got == nil {
				t.Fatalf("seed %d day %d: restore: %v, window %v", seed, toDay, err, got)
			}
			want := storeWindow(t, city, series, 7, lastGood).Summary()
			if got.Summary() != want {
				t.Fatalf("seed %d day %d: restore yields %+v, want the last verified day %d state %+v",
					seed, toDay, got.Summary(), lastGood, want)
			}
		}
		if faulted == 0 {
			t.Fatalf("seed %d: chaos profile injected no faults in 9 saves", seed)
		}
		if lastGood < 0 {
			t.Fatalf("seed %d: no save ever succeeded; probabilities too hot for the test to mean anything", seed)
		}
		c := ffs.Counts()
		t.Logf("seed %d: %d/%d saves faulted, counts %+v", seed, faulted, 9, c)
		// No leftover temp files accumulate past the fault storm.
		names, err := os.ReadDir(filepath.Dir(base))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range names {
			if strings.HasPrefix(e.Name(), ".window.snap-") {
				t.Errorf("seed %d: leaked temp file %s", seed, e.Name())
			}
		}
	}
}
