package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geo"
)

// towersHeader is the column layout of the tower metadata file.
var towersHeader = []string{"tower_id", "address", "lat", "lon"}

// towersHeaderLine is the serialised tower metadata header row.
const towersHeaderLine = "tower_id,address,lat,lon\n"

// WriteTowersCSV writes tower metadata (ID, address, coordinates) as CSV:
// towers.csv, the file that gives every tower its location (the paper
// geocoded addresses for these; the synthetic city knows them). Rows are
// appended into one reused buffer with strconv.Append* — no per-field
// strings — and flushed in large writes.
func WriteTowersCSV(w io.Writer, towers []TowerInfo) error {
	buf := make([]byte, 0, writerFlushSize+512)
	buf = append(buf, towersHeaderLine...)
	for _, t := range towers {
		buf = strconv.AppendInt(buf, int64(t.TowerID), 10)
		buf = append(buf, ',')
		buf = appendCSVField(buf, t.Address)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, t.Location.Lat, 'f', 6, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, t.Location.Lon, 'f', 6, 64)
		buf = append(buf, '\n')
		if len(buf) >= writerFlushSize {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("trace: writing towers: %w", err)
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("trace: writing towers: %w", err)
		}
	}
	return nil
}

// ReadTowersCSV parses tower metadata written by WriteTowersCSV. It
// rejects a blank address, invalid coordinates and a tower ID that appears
// twice, naming the offending tower.
func ReadTowersCSV(r io.Reader) ([]TowerInfo, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(towersHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading towers header: %w", err)
	}
	if len(header) != len(towersHeader) || header[0] != towersHeader[0] {
		return nil, fmt.Errorf("trace: unexpected towers header %v", header)
	}
	var out []TowerInfo
	seen := make(map[int]bool)
	for {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading tower row: %w", err)
		}
		id, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("trace: tower id %q: %w", row[0], err)
		}
		if seen[id] {
			return nil, fmt.Errorf("trace: tower %d listed twice", id)
		}
		seen[id] = true
		if strings.TrimSpace(row[1]) == "" {
			return nil, fmt.Errorf("trace: tower %d has a blank address", id)
		}
		lat, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: tower %d latitude: %w", id, err)
		}
		lon, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: tower %d longitude: %w", id, err)
		}
		loc := geo.Point{Lat: lat, Lon: lon}
		if !loc.Valid() {
			return nil, fmt.Errorf("trace: tower %d has invalid coordinates %v", id, loc)
		}
		out = append(out, TowerInfo{TowerID: id, Address: row[1], Location: loc})
	}
	return out, nil
}

// writerFlushSize is the buffered-output threshold of the append-based
// CSV writers: rows accumulate in one reused byte buffer and reach the
// underlying writer in large slabs.
const writerFlushSize = 32 << 10

// CSVWriter streams records to CSV without holding them in memory, for
// full-scale trace generation. Rows are serialised with
// time.AppendFormat / strconv.Append* into a reused buffer — zero
// allocations per record in the steady state, byte-identical output to
// the encoding/csv writer it replaces.
type CSVWriter struct {
	w      io.Writer
	buf    []byte
	wrote  int
	header bool
	err    error
}

// NewCSVWriter returns a streaming CSV writer targeting w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: w, buf: make([]byte, 0, writerFlushSize+1024)}
}

// writeHeader emits the header row if it has not been written yet.
func (w *CSVWriter) writeHeader() error {
	if w.err != nil {
		return w.err
	}
	if !w.header {
		w.buf = append(w.buf, csvHeaderLine...)
		w.header = true
	}
	return nil
}

// Write appends one record, emitting the header first if needed. Write
// errors are sticky.
func (w *CSVWriter) Write(r Record) error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	w.buf = appendRecord(w.buf, r)
	w.wrote++
	if len(w.buf) >= writerFlushSize {
		return w.flush()
	}
	return nil
}

// WriteBatch appends a batch of records, the write-side counterpart of
// Source.NextBatch (and directly usable as a ForEachBatch sink).
func (w *CSVWriter) WriteBatch(records []Record) error {
	if len(records) == 0 {
		return w.err
	}
	if err := w.writeHeader(); err != nil {
		return err
	}
	for _, r := range records {
		w.buf = appendRecord(w.buf, r)
		w.wrote++
		if len(w.buf) >= writerFlushSize {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush hands the buffered rows to the underlying writer.
func (w *CSVWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = fmt.Errorf("trace: writing record: %w", err)
		return w.err
	}
	w.buf = w.buf[:0]
	return nil
}

// Count returns the number of records written so far.
func (w *CSVWriter) Count() int { return w.wrote }

// Flush flushes buffered rows and returns any write error.
func (w *CSVWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.flush()
}
