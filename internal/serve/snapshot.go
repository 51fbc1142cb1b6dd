package serve

// snapshot.go is the crash-safe generational snapshot store: the service
// periodically persists its sliding window as numbered generations
// (<base>.1, <base>.2, ... — higher is newer), each written temp-file +
// fsync + rename and read back to verify the checksummed bytes before
// older generations are pruned. Restore walks the generations newest
// first and returns the newest one that is intact, so a torn write, a
// failed rename or silent bit rot costs at most one snapshot interval of
// window state — never the ability to restore.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/snapfs"
	"repro/internal/window"
)

// Snapshot-save sentinels: both mean "nothing was written, on purpose".
var (
	// ErrSnapshotEmpty means the window has ingested nothing; persisting
	// it would risk displacing a real snapshot with a blank one.
	ErrSnapshotEmpty = errors.New("serve: window is empty; snapshot skipped")
	// ErrSnapshotStale means the window is no newer than the newest
	// durable generation: a restarted process that has not caught up must
	// not bury the better snapshot under a worse one, and an idle service
	// (feed exhausted) must not churn out identical generations forever.
	ErrSnapshotStale = errors.New("serve: window no newer than the newest durable generation; snapshot skipped")
)

// defaultGenerations is the retention depth when Config.SnapshotGenerations
// is zero.
const defaultGenerations = 3

// durableClock orders window states: a window is newer when it extends
// further in trace time, and at equal extent when it has absorbed more
// records.
type durableClock struct {
	latestSlotEnd time.Time
	ingested      uint64
}

func clockOf(sum window.Summary) durableClock {
	return durableClock{latestSlotEnd: sum.LatestSlotEnd, ingested: sum.Ingested}
}

// newerThan reports whether c is strictly newer than o.
func (c durableClock) newerThan(o durableClock) bool {
	if !c.latestSlotEnd.Equal(o.latestSlotEnd) {
		return c.latestSlotEnd.After(o.latestSlotEnd)
	}
	return c.ingested > o.ingested
}

// SnapshotStore manages the numbered snapshot generations under one base
// path. Methods are safe for concurrent use; saves are serialised.
type SnapshotStore struct {
	base string
	keep int
	fs   snapfs.FS
	logf func(format string, args ...any)

	mu      sync.Mutex
	scanned bool
	nextSeq uint64
	// durable is the clock of the newest generation known intact (from a
	// restore or a verified save); durableKnown gates the comparison.
	durable      durableClock
	durableKnown bool
}

// NewSnapshotStore returns a store for generations <base>.1, <base>.2, ...
// keeping the newest keep generations (0 means defaultGenerations). A nil
// fsys means the real filesystem; logf may be nil.
func NewSnapshotStore(base string, keep int, fsys snapfs.FS, logf func(string, ...any)) *SnapshotStore {
	if keep <= 0 {
		keep = defaultGenerations
	}
	if fsys == nil {
		fsys = snapfs.OS{}
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &SnapshotStore{base: base, keep: keep, fs: fsys, logf: logf}
}

// genPath returns the path of generation seq.
func (st *SnapshotStore) genPath(seq uint64) string {
	return fmt.Sprintf("%s.%d", st.base, seq)
}

// generations lists the on-disk generation sequence numbers, newest
// first. Callers hold st.mu.
func (st *SnapshotStore) generations() ([]uint64, error) {
	dir := filepath.Dir(st.base)
	names, err := st.fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	prefix := filepath.Base(st.base) + "."
	var seqs []uint64
	for _, name := range names {
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		seq, err := strconv.ParseUint(rest, 10, 64)
		if err != nil || seq == 0 {
			continue // a temp file or foreign name, not a generation
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs, nil
}

// scan initialises nextSeq from the directory once. Callers hold st.mu.
func (st *SnapshotStore) scan() error {
	if st.scanned {
		return nil
	}
	seqs, err := st.generations()
	if err != nil {
		return err
	}
	st.nextSeq = 1
	if len(seqs) > 0 {
		st.nextSeq = seqs[0] + 1
	}
	st.scanned = true
	return nil
}

// loadDurableLocked learns the clock of the newest intact generation, so
// a process that never restored (or raced a writer) still refuses to
// regress the store. Callers hold st.mu.
func (st *SnapshotStore) loadDurableLocked() {
	if st.durableKnown {
		return
	}
	seqs, err := st.generations()
	if err != nil {
		return // no listing, nothing to protect
	}
	for _, seq := range seqs {
		data, err := st.fs.ReadFile(st.genPath(seq))
		if err != nil {
			continue
		}
		w, err := window.DecodeSnapshot(data)
		if err != nil {
			continue
		}
		st.durable = clockOf(w.Summary())
		st.durableKnown = true
		return
	}
	st.durableKnown = true // empty or all-corrupt store: anything is an improvement
}

// Save persists w as the next generation and prunes old ones. The write
// path is temp-file + fsync + rename + directory fsync, and the renamed
// file is read back and byte-verified before any pruning, so a fault
// anywhere in the path leaves every previous generation untouched.
// ErrSnapshotEmpty and ErrSnapshotStale report intentional skips.
func (st *SnapshotStore) Save(w *window.Window) (string, error) {
	sum := w.Summary()
	if sum.Ingested == 0 {
		return "", ErrSnapshotEmpty
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.scan(); err != nil {
		return "", fmt.Errorf("serve: scanning snapshot dir: %w", err)
	}
	st.loadDurableLocked()
	cand := clockOf(sum)
	if st.durableKnown && !cand.newerThan(st.durable) {
		return "", ErrSnapshotStale
	}

	var buf bytes.Buffer
	if err := w.WriteSnapshot(&buf); err != nil {
		return "", fmt.Errorf("serve: encoding snapshot: %w", err)
	}
	dir := filepath.Dir(st.base)
	tmp, err := st.fs.CreateTemp(dir, "."+filepath.Base(st.base)+"-*")
	if err != nil {
		return "", fmt.Errorf("serve: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { st.fs.Remove(tmpName) }
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		cleanup()
		return "", fmt.Errorf("serve: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return "", fmt.Errorf("serve: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return "", fmt.Errorf("serve: closing snapshot: %w", err)
	}
	target := st.genPath(st.nextSeq)
	if err := st.fs.Rename(tmpName, target); err != nil {
		cleanup()
		return "", fmt.Errorf("serve: publishing snapshot: %w", err)
	}
	st.fs.SyncDir(dir)
	st.nextSeq++ // the name is used even if verification rejects the bytes

	// Read back and verify before pruning anything: silent corruption on
	// the write path must not be allowed to displace intact generations.
	got, err := st.fs.ReadFile(target)
	if err != nil || !bytes.Equal(got, buf.Bytes()) {
		st.fs.Remove(target)
		if err == nil {
			err = errors.New("read-back bytes differ from what was written")
		}
		return "", fmt.Errorf("serve: verifying snapshot %s: %w", target, err)
	}

	st.durable = cand
	st.durableKnown = true
	st.pruneLocked()
	return target, nil
}

// pruneLocked deletes all but the newest keep generations. Failures are
// logged, not returned: stale extra generations are garbage, not danger.
func (st *SnapshotStore) pruneLocked() {
	seqs, err := st.generations()
	if err != nil {
		return
	}
	for _, seq := range seqs[min(st.keep, len(seqs)):] {
		if err := st.fs.Remove(st.genPath(seq)); err != nil {
			st.logf("serve: pruning snapshot generation %d: %v", seq, err)
		}
	}
}

// Restore rebuilds a window from the newest intact generation, falling
// past truncated or corrupt ones (each is logged), and finally trying the
// bare base path (the pre-generational layout of PR 8). It returns
// (nil, "", nil) when nothing restorable exists — a cold start.
func (st *SnapshotStore) Restore() (*window.Window, string, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	seqs, err := st.generations()
	if err != nil {
		return nil, "", nil // no directory yet: a cold start
	}
	if !st.scanned {
		st.nextSeq = 1
		if len(seqs) > 0 {
			st.nextSeq = seqs[0] + 1
		}
		st.scanned = true
	}
	candidates := make([]string, 0, len(seqs)+1)
	for _, seq := range seqs {
		candidates = append(candidates, st.genPath(seq))
	}
	candidates = append(candidates, st.base)
	for _, path := range candidates {
		data, err := st.fs.ReadFile(path)
		if err != nil {
			continue
		}
		w, err := window.DecodeSnapshot(data)
		if err != nil {
			st.logf("serve: snapshot %s unusable, trying older: %v", path, err)
			continue
		}
		st.durable = clockOf(w.Summary())
		st.durableKnown = true
		return w, path, nil
	}
	return nil, "", nil
}
