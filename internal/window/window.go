// Package window maintains per-tower sliding-window traffic state for the
// always-on analysis service: the live counterpart of the batch
// vectorizer. Records stream in (in roughly chronological order, the shape
// of a CDR feed), each tower accumulates its traffic into a ring buffer of
// fixed-length slots, and old slots are evicted as the window slides — so
// memory stays O(towers × window slots) no matter how long the feed runs.
//
// Alongside the ring every tower keeps incremental first and second
// moments of its window (the z-score state), updated in O(1) per record
// and per eviction, so live mean/deviation queries never rescan the ring.
//
// Dataset snapshots the most recent whole weeks of every tower's window
// into a pipeline.Dataset — the handoff that lets the background
// re-modeling loop run the unchanged batch pipeline (core.AnalyzeContext)
// over live state.
//
// WriteSnapshot/DecodeSnapshot persist the full window state in a versioned,
// CRC-32C-checksummed gob frame so a restarted service resumes with the
// identical window instead of warming up from nothing, and a truncated or
// bit-rotted snapshot is rejected (ErrBadSnapshot) rather than silently
// restored wrong. Version-1 snapshots (pre-checksum) remain readable.
//
// All methods are safe for concurrent use: the ingest goroutine appends
// batches while the re-modeling loop and HTTP handlers read.
package window

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Errors returned by the window.
var (
	// ErrWarmingUp means the window does not yet cover a whole week of
	// complete days, so there is nothing to model.
	ErrWarmingUp = errors.New("window: fewer than 7 complete days observed")
	// ErrBadSnapshot means the snapshot stream is not a window snapshot or
	// carries an unsupported version.
	ErrBadSnapshot = errors.New("window: bad snapshot")
)

// Options configure the sliding window. The zero value of SlotMinutes and
// Days take the defaults; Start is required.
type Options struct {
	// Start is the slot-grid origin: slot k covers
	// [Start + k·SlotMinutes, Start + (k+1)·SlotMinutes). Records before
	// Start are dropped (counted in Summary.Dropped). Required.
	Start time.Time
	// SlotMinutes is the aggregation granularity (default 10, the paper's).
	SlotMinutes int
	// Days is the sliding-window length in whole days; it must be a
	// multiple of 7 so the modeling window always covers whole weeks
	// (default 7).
	Days int
}

func (o Options) withDefaults() Options {
	if o.SlotMinutes == 0 {
		o.SlotMinutes = 10
	}
	if o.Days == 0 {
		o.Days = 7
	}
	return o
}

func (o Options) validate() error {
	if o.Start.IsZero() {
		return errors.New("window: Start must be set")
	}
	if o.SlotMinutes <= 0 || 1440%o.SlotMinutes != 0 {
		return fmt.Errorf("window: SlotMinutes must divide 1440, got %d", o.SlotMinutes)
	}
	if o.Days <= 0 || o.Days%7 != 0 {
		return fmt.Errorf("window: Days must be a positive multiple of 7, got %d", o.Days)
	}
	return nil
}

// towerState is one tower's ring of traffic slots plus the incremental
// moments over the ring.
type towerState struct {
	// ring[s % len(ring)] is the bytes of absolute slot s, valid for
	// slots in (upTo - len(ring), upTo].
	ring []float64
	// upTo is the highest absolute slot this ring has been advanced to.
	upTo int64
	// sum and sumsq are Σv and Σv² over the ring, maintained
	// incrementally on every add and eviction.
	sum, sumsq float64

	// Quarantine bookkeeping (guards.go). born is the slot at which the
	// tower first appeared and judged the newest completed slot already
	// scored. baseMed/baseScale cache the per-slot-of-day robust baseline,
	// recomputed when a judged slot is spd past statsAt (-1 = never
	// computed). outlierRun/calmRun are the consecutive-slot counters that
	// trip and release quarantine.
	born        int64
	judged      int64
	statsAt     int64
	baseMed     []float64
	baseScale   []float64
	outlierRun  int
	calmRun     int
	quarantined bool
}

// Window is the concurrent sliding-window accumulator. See the package
// comment for the model.
type Window struct {
	mu        sync.Mutex
	opts      Options
	slotDur   time.Duration
	spd       int // slots per day
	ringSlots int // (Days+1)·spd: one spare day so an aligned Days-day window always fits
	towers    map[int]*towerState
	locations map[int]geo.Point
	latest    int64 // highest absolute slot observed; -1 before any record
	ingested  uint64
	dropped   uint64

	// Feed-quality guards (guards.go). skewSlots is Guards.MaxFutureSkew
	// in slots (0 = unguarded); quarCount is the live quarantined-tower
	// gauge; the remaining counters are monotone accounting surfaced in
	// Summary. scratch is the baseline median scratch buffer.
	guards        Guards
	skewSlots     int64
	quarCount     int
	quarEvents    uint64
	quarReleases  uint64
	droppedFuture uint64
	scratch       []float64
}

// New returns an empty window.
func New(opts Options) (*Window, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	spd := 1440 / opts.SlotMinutes
	return &Window{
		opts:      opts,
		slotDur:   time.Duration(opts.SlotMinutes) * time.Minute,
		spd:       spd,
		ringSlots: (opts.Days + 1) * spd,
		towers:    make(map[int]*towerState),
		locations: make(map[int]geo.Point),
		latest:    -1,
	}, nil
}

// Options returns the window's configuration (with defaults applied).
func (w *Window) Options() Options { return w.opts }

// SetLocations registers tower locations for the datasets the window
// hands to the modeling pipeline. Locations are construction-time
// metadata, not window state: they are not persisted by WriteSnapshot and
// must be re-supplied after DecodeSnapshot.
func (w *Window) SetLocations(infos []trace.TowerInfo) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, ti := range infos {
		w.locations[ti.TowerID] = ti.Location
	}
}

// advance clears the ring entries between ts.upTo and the target slot,
// evicting their values from the incremental moments.
func (w *Window) advance(ts *towerState, to int64) {
	if to <= ts.upTo {
		return
	}
	if to-ts.upTo >= int64(w.ringSlots) {
		// The whole ring has fallen out of the window.
		for i := range ts.ring {
			ts.ring[i] = 0
		}
		ts.sum, ts.sumsq = 0, 0
		ts.upTo = to
		return
	}
	for s := ts.upTo + 1; s <= to; s++ {
		i := s % int64(w.ringSlots)
		if v := ts.ring[i]; v != 0 {
			ts.sum -= v
			ts.sumsq -= v * v
			ts.ring[i] = 0
		}
	}
	ts.upTo = to
}

// add ingests one record with the lock held.
func (w *Window) add(rec trace.Record) {
	slot := int64(rec.Start.Sub(w.opts.Start) / w.slotDur)
	if rec.Start.Before(w.opts.Start) || (w.latest >= 0 && slot <= w.latest-int64(w.ringSlots)) {
		// Before the grid origin, or so stale it already slid out.
		w.dropped++
		return
	}
	if w.skewSlots > 0 && w.latest >= 0 && slot > w.latest+w.skewSlots {
		// Further ahead of the data-driven clock than the skew guard
		// allows: a corrupt timestamp, not a legitimate jump. Admitting it
		// would wedge the clock forward and mass-evict history. The first
		// record is exempt (w.latest < 0): it establishes the clock.
		w.dropped++
		w.droppedFuture++
		return
	}
	if slot > w.latest {
		w.latest = slot
	}
	ts := w.towers[rec.TowerID]
	if ts == nil {
		ts = &towerState{ring: make([]float64, w.ringSlots), upTo: w.latest, born: w.latest, judged: w.latest - 1, statsAt: -1}
		w.towers[rec.TowerID] = ts
	}
	w.advance(ts, w.latest)
	w.judgeLocked(ts)
	i := slot % int64(w.ringSlots)
	old := ts.ring[i]
	ts.ring[i] = old + float64(rec.Bytes)
	ts.sum += float64(rec.Bytes)
	ts.sumsq += ts.ring[i]*ts.ring[i] - old*old
	w.ingested++
}

// AddBatch ingests a batch of records under one lock acquisition — the
// shape the ingest loop's pooled batches arrive in.
func (w *Window) AddBatch(recs []trace.Record) {
	w.mu.Lock()
	for _, rec := range recs {
		w.add(rec)
	}
	w.mu.Unlock()
}

// Horizon returns the oldest record start that add still admits: a record
// starting before it is dropped as slid out (or as before Options.Start),
// whatever else arrives. It never moves backwards, since the clock does
// not, and is the zero time before the first record.
func (w *Window) Horizon() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.latest < 0 {
		return time.Time{}
	}
	return w.opts.Start.Add(time.Duration(max(w.latest-int64(w.ringSlots)+1, 0)) * w.slotDur)
}

// TowerStats is the live z-score state of one tower's window.
type TowerStats struct {
	// Mean and Std are the incremental first moment and standard
	// deviation of the tower's ring slots (bytes per slot).
	Mean, Std float64
	// LastSlotBytes is the traffic accumulated in the most recent slot.
	LastSlotBytes float64
	// Slots is the ring extent the moments cover.
	Slots int
	// Quarantined reports whether the tower is currently excluded from
	// the Dataset handoff by the quarantine guard.
	Quarantined bool
}

// TowerStats returns the live window statistics of one tower, and whether
// the tower has been seen at all.
func (w *Window) TowerStats(id int) (TowerStats, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ts, ok := w.towers[id]
	if !ok {
		return TowerStats{}, false
	}
	w.advance(ts, w.latest)
	w.judgeLocked(ts)
	n := float64(w.ringSlots)
	mean := ts.sum / n
	variance := ts.sumsq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard the incremental moments' rounding
	}
	return TowerStats{
		Mean:          mean,
		Std:           math.Sqrt(variance),
		LastSlotBytes: ts.ring[w.latest%int64(w.ringSlots)],
		Slots:         w.ringSlots,
		Quarantined:   ts.quarantined,
	}, true
}

func (w *Window) sortedIDsLocked() []int {
	ids := make([]int, 0, len(w.towers))
	for id := range w.towers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Summary describes the window's global state.
type Summary struct {
	// Towers is the number of distinct towers seen.
	Towers int
	// Ingested and Dropped count records accepted into the window and
	// records discarded (pre-Start or already slid out).
	Ingested, Dropped uint64
	// LatestSlotEnd is the end of the most recent slot any record touched
	// (zero before the first record) — the window's data-driven clock.
	LatestSlotEnd time.Time
	// CompleteDays is the number of whole days of complete slots observed,
	// the warm-up gauge: modeling starts at 7.
	CompleteDays int
	// Quarantined is the number of towers currently excluded from the
	// Dataset handoff by the quarantine guard; QuarantineEvents and
	// QuarantineReleases count quarantine entries and exits over the
	// window's lifetime.
	Quarantined                          int
	QuarantineEvents, QuarantineReleases uint64
	// DroppedFuture counts records dropped by the clock-skew guard
	// (a subset of Dropped).
	DroppedFuture uint64
}

// Summary returns the global window state.
func (w *Window) Summary() Summary {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := Summary{
		Towers:             len(w.towers),
		Ingested:           w.ingested,
		Dropped:            w.dropped,
		Quarantined:        w.quarCount,
		QuarantineEvents:   w.quarEvents,
		QuarantineReleases: w.quarReleases,
		DroppedFuture:      w.droppedFuture,
	}
	if w.latest >= 0 {
		s.LatestSlotEnd = w.opts.Start.Add(time.Duration(w.latest+1) * w.slotDur)
		s.CompleteDays = int(w.latest) / w.spd
	}
	return s
}

// Dataset snapshots the most recent whole weeks of every tower's window
// into an analysis-ready dataset: up to Options.Days days, ending at the
// most recent complete day boundary (the slot currently accumulating and
// its day are excluded). Towers whose extracted window carries no traffic
// at all are filtered out, exactly as the batch vectorizer's
// MinActiveSlots does, and so are towers currently held in quarantine by
// the feed-quality guards (Summary.Quarantined accounts for them). It
// returns ErrWarmingUp until a whole week of complete days has been
// observed. Rows are in ascending tower-ID order.
//
// Each tower's window is copied once, from its ring straight into a row of
// the matrix pipeline.VectorizeMatrix adopts. The window lock is held only
// for that copy (and the per-tower advance and judgement before it);
// normalisation and validation run after it is released, on memory the
// window no longer references, so they stall neither ingest nor TowerStats.
func (w *Window) Dataset() (*pipeline.Dataset, error) {
	w.mu.Lock()
	if w.latest < 0 {
		w.mu.Unlock()
		return nil, ErrWarmingUp
	}
	// Slots strictly before `latest` are complete (the feed is
	// chronological at slot granularity); the window ends at the last
	// whole-day boundary among them and spans the largest multiple of 7
	// days available, capped at the configured window length.
	endDay := int(w.latest) / w.spd
	days := endDay
	if days > w.opts.Days {
		days = w.opts.Days
	}
	days -= days % 7
	if days < 7 {
		w.mu.Unlock()
		return nil, ErrWarmingUp
	}
	startSlot := int64(endDay-days) * int64(w.spd)
	slots := days * w.spd

	towerIDs := make([]int, 0, len(w.towers))
	locations := make([]geo.Point, 0, len(w.towers))
	raw := linalg.NewMatrix(len(w.towers), slots)
	for _, id := range w.sortedIDsLocked() {
		ts := w.towers[id]
		w.advance(ts, w.latest)
		// Judge before the handoff so even towers whose feed went fully
		// silent (no add() calls to score them) are evaluated here.
		w.judgeLocked(ts)
		if ts.quarantined {
			continue // before a row is spent: the next tower takes this one
		}
		// The window is shorter than the ring, so it wraps at most once.
		row := raw.Row(len(towerIDs))
		n := copy(row, ts.ring[startSlot%int64(w.ringSlots):])
		copy(row[n:], ts.ring)
		towerIDs = append(towerIDs, id)
		locations = append(locations, w.locations[id])
	}
	w.mu.Unlock()

	raw.Rows, raw.Data = len(towerIDs), raw.Data[:len(towerIDs)*slots]
	return pipeline.VectorizeMatrix(towerIDs, locations, raw, pipeline.VectorizerOptions{
		Start:          w.opts.Start.Add(time.Duration(startSlot) * w.slotDur),
		Days:           days,
		SlotMinutes:    w.opts.SlotMinutes,
		MinActiveSlots: 1,
	})
}

// snapshotVersion is the on-disk format version. Bump it when the frame
// layout changes; DecodeSnapshot rejects versions it does not know.
//
// Version history:
//
//	1  a bare gob snapshotFrame (PR 8). Still readable.
//	2  a fixed binary header (magic, CRC-32C and length of the body)
//	   followed by the gob frame, so restore detects truncation and bit
//	   corruption instead of rebuilding a silently wrong window.
const snapshotVersion = 2

// snapshotMagic guards against feeding an arbitrary gob stream (or an
// arbitrary file) to DecodeSnapshot.
const snapshotMagic = "repro-window-snapshot"

// snapshotFrame is the serialised form of the whole window.
type snapshotFrame struct {
	Magic       string
	Version     int
	Start       time.Time
	SlotMinutes int
	Days        int
	Latest      int64
	Ingested    uint64
	Dropped     uint64
	Towers      []towerSnapshot
	// Guard accounting (zero in snapshots from before the feed-quality
	// guards; gob tolerates the missing fields, so the frame stays
	// version 2 and older v2 snapshots remain restorable).
	DroppedFuture      uint64
	QuarantineEvents   uint64
	QuarantineReleases uint64
}

// towerSnapshot is the serialised form of one tower's ring.
type towerSnapshot struct {
	ID         int
	Ring       []float64
	Sum, SumSq float64
	// Quarantine bookkeeping; zero in pre-guard snapshots. The cached
	// baseline is not persisted — it is recomputed on first judgement.
	Born, Judged        int64
	OutlierRun, CalmRun int
	Quarantined         bool
}

// The v2 header: the magic string and a version tag in clear ASCII, then
// a little-endian CRC-32C and byte length of the gob body. A v1 file is a
// bare gob stream, which cannot begin with these bytes.
var snapshotHeaderMagic = []byte(snapshotMagic + "\x00v2")

const snapshotHeaderSize = len(snapshotMagic) + 3 + 4 + 8 // magic + "\x00v2" + crc32 + length

// snapshotCRC is the checksum of snapshot bodies: CRC-32C (Castagnoli),
// the polynomial with hardware support on amd64/arm64.
var snapshotCRCTable = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshot serialises the full window state — a checksummed header
// followed by a versioned gob frame — so a restarted process can resume
// the identical window and a torn or bit-rotted file is detected at
// restore instead of rebuilding a silently wrong window. Tower rings are
// canonicalised (advanced to the newest slot) first, and towers are
// written in ID order, so equal window states produce identical bytes.
func (w *Window) WriteSnapshot(out io.Writer) error {
	w.mu.Lock()
	frame := snapshotFrame{
		Magic:              snapshotMagic,
		Version:            snapshotVersion,
		Start:              w.opts.Start,
		SlotMinutes:        w.opts.SlotMinutes,
		Days:               w.opts.Days,
		Latest:             w.latest,
		Ingested:           w.ingested,
		Dropped:            w.dropped,
		DroppedFuture:      w.droppedFuture,
		QuarantineEvents:   w.quarEvents,
		QuarantineReleases: w.quarReleases,
	}
	for _, id := range w.sortedIDsLocked() {
		ts := w.towers[id]
		w.advance(ts, w.latest)
		frame.Towers = append(frame.Towers, towerSnapshot{
			ID:          id,
			Ring:        ts.ring,
			Sum:         ts.sum,
			SumSq:       ts.sumsq,
			Born:        ts.born,
			Judged:      ts.judged,
			OutlierRun:  ts.outlierRun,
			CalmRun:     ts.calmRun,
			Quarantined: ts.quarantined,
		})
	}
	var body bytes.Buffer
	err := gob.NewEncoder(&body).Encode(&frame)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	header := make([]byte, 0, snapshotHeaderSize)
	header = append(header, snapshotHeaderMagic...)
	header = binary.LittleEndian.AppendUint32(header, crc32.Checksum(body.Bytes(), snapshotCRCTable))
	header = binary.LittleEndian.AppendUint64(header, uint64(body.Len()))
	if _, err := out.Write(header); err != nil {
		return err
	}
	_, err = out.Write(body.Bytes())
	return err
}

// DecodeSnapshot rebuilds a window from the bytes of a WriteSnapshot
// stream. The restored window is state-identical to the snapshotted one:
// the same rings, the same incremental moments bit for bit, the same
// counters — so the first re-model after a restart produces the dataset
// the crashed process would have. Re-supply tower locations with
// SetLocations afterwards.
//
// Both snapshot versions are readable: a v2 stream has its header length
// and CRC-32C verified (truncation and corruption surface as
// ErrBadSnapshot), a v1 stream is decoded as the bare gob frame it is.
func DecodeSnapshot(data []byte) (*Window, error) {
	if bytes.HasPrefix(data, snapshotHeaderMagic) {
		if len(data) < snapshotHeaderSize {
			return nil, fmt.Errorf("%w: truncated header (%d of %d bytes)", ErrBadSnapshot, len(data), snapshotHeaderSize)
		}
		sum := binary.LittleEndian.Uint32(data[len(snapshotHeaderMagic):])
		bodyLen := binary.LittleEndian.Uint64(data[len(snapshotHeaderMagic)+4:])
		body := data[snapshotHeaderSize:]
		if uint64(len(body)) < bodyLen {
			return nil, fmt.Errorf("%w: truncated body (%d of %d bytes)", ErrBadSnapshot, len(body), bodyLen)
		}
		if uint64(len(body)) > bodyLen {
			return nil, fmt.Errorf("%w: %d trailing bytes after the body", ErrBadSnapshot, uint64(len(body))-bodyLen)
		}
		if got := crc32.Checksum(body, snapshotCRCTable); got != sum {
			return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrBadSnapshot, sum, got)
		}
		return decodeFrame(body, snapshotVersion)
	}
	// No v2 header: a version-1 file, a bare gob frame with no checksum.
	return decodeFrame(data, 1)
}

// decodeFrame decodes the gob frame of a snapshot body and rebuilds the
// window, requiring the frame to carry wantVersion.
func decodeFrame(body []byte, wantVersion int) (*Window, error) {
	var frame snapshotFrame
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&frame); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if frame.Magic != snapshotMagic {
		return nil, fmt.Errorf("%w: not a window snapshot", ErrBadSnapshot)
	}
	if frame.Version != wantVersion {
		return nil, fmt.Errorf("%w: version %d, want %d here", ErrBadSnapshot, frame.Version, wantVersion)
	}
	w, err := New(Options{Start: frame.Start, SlotMinutes: frame.SlotMinutes, Days: frame.Days})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	w.latest = frame.Latest
	w.ingested = frame.Ingested
	w.dropped = frame.Dropped
	w.droppedFuture = frame.DroppedFuture
	w.quarEvents = frame.QuarantineEvents
	w.quarReleases = frame.QuarantineReleases
	for _, tsnap := range frame.Towers {
		if len(tsnap.Ring) != w.ringSlots {
			return nil, fmt.Errorf("%w: tower %d ring has %d slots, want %d", ErrBadSnapshot, tsnap.ID, len(tsnap.Ring), w.ringSlots)
		}
		if _, dup := w.towers[tsnap.ID]; dup {
			return nil, fmt.Errorf("%w: tower %d appears twice", ErrBadSnapshot, tsnap.ID)
		}
		w.towers[tsnap.ID] = &towerState{
			ring:        tsnap.Ring,
			upTo:        frame.Latest,
			sum:         tsnap.Sum,
			sumsq:       tsnap.SumSq,
			born:        tsnap.Born,
			judged:      tsnap.Judged,
			statsAt:     -1,
			outlierRun:  tsnap.OutlierRun,
			calmRun:     tsnap.CalmRun,
			quarantined: tsnap.Quarantined,
		}
		if tsnap.Quarantined {
			w.quarCount++
		}
	}
	return w, nil
}
