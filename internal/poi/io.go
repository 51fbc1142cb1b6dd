package poi

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/geo"
)

var poiHeader = []string{"type", "lat", "lon", "name"}

// WriteCSV writes the POI inventory as CSV.
func WriteCSV(w io.Writer, pois []POI) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(poiHeader); err != nil {
		return fmt.Errorf("poi: writing header: %w", err)
	}
	for i, p := range pois {
		row := []string{
			p.Type.String(),
			strconv.FormatFloat(p.Location.Lat, 'f', 6, 64),
			strconv.FormatFloat(p.Location.Lon, 'f', 6, 64),
			p.Name,
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("poi: writing row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a POI inventory written by WriteCSV. It rejects a row
// whose coordinates are not a valid location, naming its line.
func ReadCSV(r io.Reader) ([]POI, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(poiHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("poi: reading header: %w", err)
	}
	if len(header) != len(poiHeader) || header[0] != poiHeader[0] {
		return nil, fmt.Errorf("poi: unexpected header %v", header)
	}
	var out []POI
	for {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("poi: reading row: %w", err)
		}
		typ, err := ParseType(row[0])
		if err != nil {
			return nil, err
		}
		lat, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("poi: latitude %q: %w", row[1], err)
		}
		lon, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("poi: longitude %q: %w", row[2], err)
		}
		loc := geo.Point{Lat: lat, Lon: lon}
		if !loc.Valid() {
			line, _ := cr.FieldPos(1)
			return nil, fmt.Errorf("poi: line %d has invalid coordinates %v", line, loc)
		}
		out = append(out, POI{Type: typ, Location: loc, Name: row[3]})
	}
	return out, nil
}

// ParseType converts a POI type name back to its Type value.
func ParseType(s string) (Type, error) {
	for _, t := range Types {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("poi: unknown POI type %q", s)
}
