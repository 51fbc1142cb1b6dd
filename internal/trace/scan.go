package trace

// scan.go is the zero-allocation ingestion scanner: a byte-level CSV
// reader in place of an encoding/csv + strconv + time.Parse stack (the
// CSVReader kept with the tests as its oracle). Field bytes never become
// intermediate strings: fields of single-line rows are borrowed as views
// straight out of the read buffer, integers and the fixed RFC 3339
// timestamp layout are parsed in place (with a per-scanner date cache so
// the calendar arithmetic runs once per distinct day, not once per
// record), tower addresses are interned (one string per distinct address,
// not per record) and the radio technology maps onto the two package
// constants. In the steady state a warmed Scanner performs zero
// allocations per record.
//
// Most rows never reach that machinery: a row in the canonical shape
// CSVWriter writes, lying whole in the read buffer, is decoded in one
// fused pass (scanCanonical) that takes the line, parses its fields and
// validates the record without building field views. It declines
// anything else with nothing consumed, so the general path below — and
// every skip, budget and error position — handles all other rows
// unchanged.
//
// Row classification is kept bit-compatible with the CSVReader oracle
// (encoding/csv + parseRow): rows that leave the single-line fast path —
// quoted fields spanning newlines — are restarted through a slow parser
// that follows the same state machine as csv.Reader.readRecord (""
// escapes, \r\n normalisation, blank-line skipping, bare-quote,
// unterminated-quote and field-count errors), and the typed field
// parsers fall back to strconv/time.Parse for any input outside the
// canonical shapes they fully validate, so a row is skipped by the
// Scanner exactly when the oracle would skip it. FuzzScanRecords
// enforces this differentially.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

const (
	// scanBufSize is the initial size of the Scanner's read buffer. Lines
	// longer than the buffer grow it geometrically.
	scanBufSize = 128 << 10
	// maxInternedAddresses bounds the address intern table so adversarial
	// input (every row a distinct address) cannot hold unbounded memory;
	// beyond the cap addresses are allocated per record like parseRow does.
	maxInternedAddresses = 1 << 16
)

// errRow marks a row the Scanner skips — either structurally broken CSV
// (the equivalent of *csv.ParseError) or well-formed CSV whose fields
// fail to parse or validate. errMultiline diverts a row whose quoted
// field runs past its first line to the slow parser. Neither escapes the
// Scanner.
var (
	errRow       = errors.New("trace: malformed row")
	errMultiline = errors.New("trace: row spans lines")
)

// Scanner is a streaming Source over the CSV format written by WriteCSV /
// CSVWriter, allocation-free per record in the steady state. Malformed
// rows are skipped and counted (see Stats); I/O errors from the
// underlying reader abort the stream. Not safe for concurrent use.
type Scanner struct {
	r       io.Reader
	buf     []byte
	start   int   // parse position in buf
	end     int   // end of valid data in buf
	eof     bool  // underlying reader reported io.EOF
	readErr error // latched non-EOF read error, surfaced once the buffer drains
	err     error

	stats  SkipStats
	rows   int64 // data rows observed so far, skipped rows included
	policy ErrorPolicy

	// Stream position, maintained by readLine: physical lines and raw
	// bytes consumed (the header counts), plus the position at which the
	// current row starts — what a positioned fail-fast error reports.
	// Chunk scanners run with chunk-relative positions that the parallel
	// consumer rebases.
	line      int64
	offset    int64
	lineStart int64
	rowLine   int64
	rowOffset int64

	// Per-row scratch, reused across records. fields holds the current
	// row's field views: into the read buffer for borrowed fields, into
	// fieldBuf for unescaped or multi-line fields. contBuf carries a
	// row's first line into the slow parser, where buffer refills would
	// otherwise invalidate it. fieldEnds is the slow parser's field
	// boundary list (views are materialised only once it finishes, so
	// fieldBuf growth cannot dangle them).
	fields    [][]byte
	fieldBuf  []byte
	fieldEnds []int
	contBuf   []byte

	// Single-entry date cache: traces are near-chronological, so almost
	// every timestamp shares one calendar day and the time.Date call
	// collapses to one Duration add.
	dateKey  [10]byte
	dateBase time.Time
	dateOK   bool

	intern map[string]string
}

// NewScanner wraps r, reads and checks the header row, and returns a
// scanner yielding one record per data row. NewIngestSourceContext picks
// between this serial layout and the parallel one.
func NewScanner(r io.Reader) (*Scanner, error) {
	return NewScannerPolicy(r, ErrorPolicy{})
}

// NewScannerPolicy is NewScanner with an explicit ingestion error policy
// (the zero policy skips and counts malformed rows, the historical
// behaviour). Policy violations surface as terminal errors wrapping
// ErrRowRejected or ErrBudgetExceeded; fail-fast errors carry a PosError
// locating the offending row.
func NewScannerPolicy(r io.Reader, policy ErrorPolicy) (*Scanner, error) {
	s := newChunkScanner()
	s.r = r
	s.policy = policy
	s.buf = make([]byte, scanBufSize)
	s.eof = false
	if err := s.readRow(); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(s.fields) != len(csvHeader) || string(s.fields[0]) != csvHeader[0] {
		return nil, fmt.Errorf("trace: unexpected header")
	}
	return s, nil
}

// newChunkScanner returns a Scanner shell without a reader or buffer,
// for resetBytes-driven chunk parsing by ParallelCSVSource workers.
func newChunkScanner() *Scanner {
	return &Scanner{
		fields:    make([][]byte, 0, len(csvHeader)+1),
		fieldEnds: make([]int, 0, len(csvHeader)+1),
		intern:    make(map[string]string),
	}
}

// resetBytes points the scanner at an in-memory chunk with no header.
// The intern table, date cache and scratch buffers survive resets so a
// pooled worker scanner stays allocation-free across chunks.
func (s *Scanner) resetBytes(data []byte) {
	s.r = nil
	s.buf = data
	s.start, s.end = 0, len(data)
	s.eof = true
	s.err = nil
	s.stats = SkipStats{}
	s.rows = 0
	s.line, s.offset, s.lineStart = 0, 0, 0
	s.rowLine, s.rowOffset = 0, 0
}

// Stats returns the per-category skip accounting so far.
func (s *Scanner) Stats() SkipStats { return s.stats }

// Close is a no-op: the serial Scanner holds no background resources.
// It exists so Scanner satisfies IngestSource's cleanup contract.
func (s *Scanner) Close() {}

// NextBatch fills dst with up to len(dst) records and returns how many
// were produced. A non-nil error is terminal and may accompany the final
// records of the stream: io.EOF for normal end of input, anything else
// an I/O failure. Records dst[:n] are always valid.
func (s *Scanner) NextBatch(dst []Record) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n := 0
	for n < len(dst) {
		if s.scanCanonical(&dst[n]) {
			s.rows++
			n++
			continue
		}
		if err := s.readRow(); err != nil {
			if err == errRow {
				if ferr := s.reject(skipMalformed); ferr != nil {
					s.err = ferr
					return n, ferr
				}
				continue
			}
			if !errors.Is(err, io.EOF) {
				err = fmt.Errorf("trace: reading row: %w", &PosError{Line: s.line, Offset: s.offset, Err: err})
			}
			s.err = err
			return n, err
		}
		if cat := s.toRecord(&dst[n]); cat == skipNone {
			s.rows++
			n++
		} else if ferr := s.reject(cat); ferr != nil {
			s.err = ferr
			return n, ferr
		}
	}
	return n, nil
}

// scanCanonical decodes the next row straight into rec when it is a
// complete line already in the buffer, in the shape CSVWriter writes
// (digits,TS,TS,digits,address,digits,3G|LTE and a bare \n; the address
// unquoted with no quote, or quoted with no "" escape; integers of at
// most 18 digits; timestamps canonical) and valid as toRecord judges it.
// It fuses readLine, parseRowFast and toRecord into one left-to-right
// pass with no field views, and leaves the stream position exactly as
// readLine would. Anything else — a row that straddles the buffer end,
// CRLF, blank and multi-line rows, escapes, a last line with no newline,
// every malformed or invalid row — it declines having consumed nothing,
// and readRow takes the row as before. So it accepts only rows readRow
// accepts, with identical records, and all skip accounting stays there.
func (s *Scanner) scanCanonical(rec *Record) bool {
	nl := bytes.IndexByte(s.buf[s.start:s.end], '\n')
	if nl < 0 {
		return false
	}
	line := s.buf[s.start : s.start+nl]
	userID, i, ok := canonicalInt(line, 0)
	// Both timestamps sit at fixed offsets, each followed by a comma.
	if !ok || len(line) <= i+43 || line[i+21] != ',' || line[i+42] != ',' {
		return false
	}
	start, ok := s.parseTimeCanonical(line[i+1 : i+21])
	if !ok {
		return false
	}
	end, ok := s.parseTimeCanonical(line[i+22 : i+42])
	if !ok {
		return false
	}
	towerID, i, ok := canonicalInt(line, i+43)
	if !ok {
		return false
	}
	var addr []byte
	if a := i + 1; a < len(line) && line[a] == '"' {
		// Quoted: the first quote closes it, and a comma must follow
		// (anything else is an escape or junk).
		q := bytes.IndexByte(line[a+1:], '"')
		if q < 0 {
			return false
		}
		addr = line[a+1 : a+1+q]
		i = a + 2 + q
		if i >= len(line) || line[i] != ',' {
			return false
		}
	} else {
		for i = a; i < len(line) && line[i] != ','; i++ {
			if line[i] == '"' {
				return false
			}
		}
		if i == len(line) {
			return false
		}
		addr = line[a:i]
	}
	byteCount, i, ok := canonicalInt(line, i+1)
	if !ok {
		return false
	}
	var technology Technology
	switch tech := line[i+1:]; {
	case len(tech) == 2 && tech[0] == '3' && tech[1] == 'G':
		technology = Tech3G
	case len(tech) == 3 && tech[0] == 'L' && tech[1] == 'T' && tech[2] == 'E':
		technology = TechLTE
	default:
		return false
	}
	// toRecord's validity checks; the integers are non-negative.
	if userID > math.MaxInt || towerID > math.MaxInt ||
		start.IsZero() || end.IsZero() || end.Before(start) {
		return false
	}
	s.start += nl + 1
	s.lineStart = s.offset
	s.offset += int64(nl + 1)
	s.line++
	s.rowLine, s.rowOffset = s.line, s.lineStart
	rec.UserID = int(userID)
	rec.Start = start
	rec.End = end
	rec.TowerID = int(towerID)
	rec.Bytes = byteCount
	rec.Address = s.internAddress(addr)
	rec.Tech = technology
	return true
}

// canonicalInt parses the 1 to 18 digits that start at line[i] and end
// at a comma, returning their value and the comma's index. More digits,
// a sign or any other byte report false: parseIntField decides those.
func canonicalInt(line []byte, i int) (int64, int, bool) {
	var v int64
	for j := i; j < len(line); j++ {
		c := line[j]
		if c == ',' {
			return v, j, j > i
		}
		if c < '0' || c > '9' || j-i == 18 {
			return 0, 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return 0, 0, false
}

// reject accounts one dropped row and applies the error policy: a nil
// return keeps streaming; otherwise the returned error is terminal. The
// records already in dst stay valid — a fail-fast stream delivers every
// good row before the offending one.
func (s *Scanner) reject(cat skipCategory) error {
	s.rows++
	s.stats.count(cat)
	switch s.policy.Mode {
	case PolicyFailFast:
		return fmt.Errorf("trace: %w", &PosError{
			Line:   s.rowLine,
			Offset: s.rowOffset,
			Err:    fmt.Errorf("%v: %w", cat, ErrRowRejected),
		})
	case PolicyBudget:
		if s.policy.exceeded(s.stats.SkippedRows()) {
			return fmt.Errorf("trace: %w: %d of %d rows dropped (%v)",
				ErrBudgetExceeded, s.stats.SkippedRows(), s.rows, s.stats)
		}
	}
	return nil
}

// fill compacts the buffer and reads more data. It only returns
// I/O errors; io.EOF is latched into s.eof. A non-EOF error arriving
// together with data (legal for io.Reader) is latched into s.readErr so
// the complete lines already buffered are served first — exactly how
// the bufio-backed CSVReader behaves.
func (s *Scanner) fill() error {
	if s.readErr != nil {
		return s.readErr
	}
	if s.start > 0 {
		copy(s.buf, s.buf[s.start:s.end])
		s.end -= s.start
		s.start = 0
	}
	if s.end == len(s.buf) {
		grown := make([]byte, 2*len(s.buf))
		copy(grown, s.buf[:s.end])
		s.buf = grown
	}
	n, err := s.r.Read(s.buf[s.end:])
	s.end += n
	if err == io.EOF {
		s.eof = true
		return nil
	}
	if err != nil && n > 0 {
		s.readErr = err
		return nil
	}
	return err
}

// lengthNL reports the number of trailing newline bytes (0 or 1),
// mirroring encoding/csv.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// readLine returns the next line including its trailing newline, with
// \r\n normalised to \n and a lone trailing \r before EOF dropped —
// byte for byte what csv.Reader.readLine yields. The returned slice
// aliases the read buffer and is only valid until the next readLine.
func (s *Scanner) readLine() ([]byte, error) {
	searched := 0
	for {
		if i := bytes.IndexByte(s.buf[s.start+searched:s.end], '\n'); i >= 0 {
			n := searched + i + 1
			line := s.buf[s.start : s.start+n]
			s.start += n
			s.lineStart = s.offset
			s.offset += int64(n)
			s.line++
			if ll := len(line); ll >= 2 && line[ll-2] == '\r' {
				line[ll-2] = '\n'
				line = line[:ll-1]
			}
			return line, nil
		}
		searched = s.end - s.start
		if s.eof {
			if searched == 0 {
				return nil, io.EOF
			}
			line := s.buf[s.start:s.end]
			s.start = s.end
			s.lineStart = s.offset
			s.offset += int64(len(line))
			s.line++
			if line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			return line, nil
		}
		if err := s.fill(); err != nil {
			return nil, err
		}
	}
}

// readRow parses the next CSV record into s.fields. It returns errRow
// for structurally broken rows, io.EOF at end of input, or an I/O
// error.
func (s *Scanner) readRow() error {
	var line []byte
	for {
		l, err := s.readLine()
		if err != nil {
			return err
		}
		if len(l) == lengthNL(l) {
			continue // blank line
		}
		line = l
		// The row starts on this line; multi-line quoted rows keep the
		// first line's position.
		s.rowLine, s.rowOffset = s.line, s.lineStart
		break
	}
	err := s.parseRowFast(line)
	if err == errMultiline {
		err = s.parseRowSlow(line)
	}
	if err != nil {
		return err
	}
	if len(s.fields) != len(csvHeader) {
		return errRow // csv's ErrFieldCount
	}
	return nil
}

// parseRowFast parses a record that lies entirely within line, borrowing
// field views out of the read buffer and unescaping quoted fields with
// "" escapes into the pre-sized scratch buffer. It returns errMultiline
// when a quoted field runs past the end of the line (including the
// unterminated-at-EOF case, which the slow parser classifies).
func (s *Scanner) parseRowFast(line []byte) error {
	// Pre-size the unescape buffer so in-row appends can never
	// reallocate: views into it must stay valid for the whole row.
	if cap(s.fieldBuf) < len(line) {
		s.fieldBuf = make([]byte, 0, len(line)+64)
	}
	fb := s.fieldBuf[:0]
	fields := s.fields[:0]
	var err error
	rest := line
parseField:
	for {
		if len(rest) == 0 || rest[0] != '"' {
			// Non-quoted field: up to the comma or end of line, with a
			// bare quote anywhere inside making the row structurally
			// invalid (csv's ErrBareQuote). One fused manual scan beats
			// two vectorised IndexByte calls at typical field lengths.
			i := -1
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == ',' {
					i = j
					break
				}
				if c == '"' {
					err = errRow
					break parseField
				}
			}
			if i >= 0 {
				fields = append(fields, rest[:i])
				rest = rest[i+1:]
				continue parseField
			}
			fields = append(fields, rest[:len(rest)-lengthNL(rest)])
			break parseField
		}
		// Quoted field.
		rest = rest[1:]
		i := bytes.IndexByte(rest, '"')
		if i < 0 {
			err = errMultiline
			break parseField
		}
		if after := rest[i+1:]; len(after) == 0 || after[0] == ',' || lengthNL(after) == len(after) {
			// No "" escapes: borrow the content between the quotes.
			fields = append(fields, rest[:i])
			if len(after) > 0 && after[0] == ',' {
				rest = after[1:]
				continue parseField
			}
			break parseField // closing quote at end of record
		} else if after[0] != '"' {
			err = errRow // quote followed by junk (csv's ErrQuote)
			break parseField
		}
		// "" escapes: unescape into fb (stable: pre-sized above).
		start := len(fb)
		cur := rest
		for {
			fb = append(fb, cur[:i]...)
			after := cur[i+1:]
			if len(after) > 0 && after[0] == '"' {
				fb = append(fb, '"')
				cur = after[1:]
				i = bytes.IndexByte(cur, '"')
				if i < 0 {
					err = errMultiline
					break parseField
				}
				continue
			}
			// Closing quote.
			fields = append(fields, fb[start:])
			switch {
			case len(after) > 0 && after[0] == ',':
				rest = after[1:]
			case lengthNL(after) == len(after):
				break parseField
			default:
				err = errRow
				break parseField
			}
			break
		}
	}
	s.fields = fields
	s.fieldBuf = fb
	return err
}

// parseRowSlow handles rows whose quoted fields span lines, tracking
// csv.Reader.readRecord case by case. The first line is copied into
// contBuf (buffer refills while reading continuation lines would
// invalidate it); fields are assembled in fieldBuf and materialised as
// views only after the parse completes, so growth cannot dangle them.
func (s *Scanner) parseRowSlow(first []byte) error {
	s.contBuf = append(s.contBuf[:0], first...)
	line := s.contBuf
	fb := s.fieldBuf[:0]
	ends := s.fieldEnds[:0]
	var rowErr error
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if bytes.IndexByte(field, '"') >= 0 {
				rowErr = errRow // bare quote
				break parseField
			}
			fb = append(fb, field...)
			ends = append(ends, len(fb))
			if i >= 0 {
				line = line[i+1:]
				continue parseField
			}
			break parseField
		}
		// Quoted field.
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				fb = append(fb, line[:i]...)
				line = line[i+1:]
				switch {
				case len(line) > 0 && line[0] == '"':
					// "" escape: literal quote.
					fb = append(fb, '"')
					line = line[1:]
				case len(line) > 0 && line[0] == ',':
					line = line[1:]
					ends = append(ends, len(fb))
					continue parseField
				case lengthNL(line) == len(line):
					// Closing quote at end of line (or end of input).
					ends = append(ends, len(fb))
					break parseField
				default:
					// Quote followed by anything else (csv's ErrQuote).
					rowErr = errRow
					break parseField
				}
			case len(line) > 0:
				// Field continues past the end of the line: keep the
				// newline and read on.
				fb = append(fb, line...)
				nl, err := s.readLine()
				if err != nil {
					if errors.Is(err, io.EOF) {
						// Unterminated quote at end of input.
						rowErr = errRow
						break parseField
					}
					s.fieldBuf, s.fieldEnds = fb, ends
					return err
				}
				line = nl
			default:
				// Line exhausted with the quote still open.
				rowErr = errRow
				break parseField
			}
		}
	}
	s.fieldBuf, s.fieldEnds = fb, ends
	if rowErr != nil {
		return rowErr
	}
	// Materialise the field views now that fieldBuf is final.
	s.fields = s.fields[:0]
	start := 0
	for _, end := range ends {
		s.fields = append(s.fields, fb[start:end])
		start = end
	}
	return nil
}

// toRecord converts the current row's fields into rec, returning
// skipNone on success or the drop category otherwise. Acceptance
// matches the oracle's parseRow + Validate; the category order follows its
// field order so serial, parallel and encoding/csv ingestion report
// identical per-category stats.
func (s *Scanner) toRecord(rec *Record) skipCategory {
	f := s.fields
	userID, ok := parseIntField(f[0])
	if !ok {
		return skipBadField
	}
	start, ok := s.parseTime(f[1])
	if !ok {
		return skipBadTimestamp
	}
	end, ok := s.parseTime(f[2])
	if !ok {
		return skipBadTimestamp
	}
	towerID, ok := parseIntField(f[3])
	if !ok {
		return skipBadField
	}
	byteCount, ok := parseIntField(f[5])
	if !ok {
		return skipBadField
	}
	tech := f[6]
	var technology Technology
	switch {
	case len(tech) == 2 && tech[0] == '3' && tech[1] == 'G':
		technology = Tech3G
	case len(tech) == 3 && tech[0] == 'L' && tech[1] == 'T' && tech[2] == 'E':
		technology = TechLTE
	default:
		// Record.valid rejects every other technology; skip without
		// building the string.
		return skipBadField
	}
	// Record.valid, inlined to avoid copying the record through the method
	// value. The checks and their outcomes match it, plus
	// the int range check strconv.Atoi applies on 32-bit platforms (the
	// comparisons are constant-false on 64-bit).
	if userID < math.MinInt || userID > math.MaxInt ||
		towerID < math.MinInt || towerID > math.MaxInt {
		return skipBadField
	}
	if userID < 0 || towerID < 0 || byteCount < 0 ||
		start.IsZero() || end.IsZero() || end.Before(start) {
		return skipBadField
	}
	rec.UserID = int(userID)
	rec.Start = start
	rec.End = end
	rec.TowerID = int(towerID)
	rec.Bytes = byteCount
	rec.Address = s.internAddress(f[4])
	rec.Tech = technology
	return skipNone
}

// internAddress returns a string for the address bytes, reusing one
// allocation per distinct address. The map lookup on a []byte key
// compiles to a no-alloc string conversion.
func (s *Scanner) internAddress(b []byte) string {
	if v, ok := s.intern[string(b)]; ok {
		return v
	}
	v := string(b)
	if len(s.intern) < maxInternedAddresses {
		s.intern[v] = v
	}
	return v
}

// parseIntField parses a decimal integer with strconv.ParseInt(s, 10, 64)
// semantics. The fast path covers an optional leading minus and up to 18
// digits — guaranteed overflow-free — and anything else (plus signs,
// longer digit runs, stray bytes, empty input) falls back to strconv so
// acceptance matches the oracle exactly.
func parseIntField(b []byte) (int64, bool) {
	d := b
	neg := false
	if len(d) > 0 && d[0] == '-' {
		neg = true
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 18 {
		return parseIntSlow(b)
	}
	var v int64
	for _, c := range d {
		if c < '0' || c > '9' {
			return parseIntSlow(b)
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

func parseIntSlow(b []byte) (int64, bool) {
	v, err := strconv.ParseInt(string(b), 10, 64)
	return v, err == nil
}

// parseTime parses the canonical UTC RFC 3339 form
// "2006-01-02T15:04:05Z" without allocating, memoising the calendar
// computation per distinct day. Any other shape — offsets, fractional
// seconds, out-of-range components, single-digit hours the lenient
// stdlib parser tolerates — falls back to time.Parse so the Scanner
// accepts and rejects rows exactly as parseRow does. The fast path's
// result is bit-identical (==) to time.Parse's.
func (s *Scanner) parseTime(b []byte) (time.Time, bool) {
	if t, ok := s.parseTimeCanonical(b); ok {
		return t, true
	}
	return parseTimeSlow(b)
}

// parseTimeCanonical is parseTime's fast path: it reports false for
// anything but the canonical form with in-range components.
func (s *Scanner) parseTimeCanonical(b []byte) (time.Time, bool) {
	if len(b) != 20 || b[10] != 'T' || b[13] != ':' || b[16] != ':' || b[19] != 'Z' {
		return time.Time{}, false
	}
	hour, ok := twoDigits(b[11], b[12])
	if !ok || hour > 23 {
		return time.Time{}, false
	}
	minute, ok := twoDigits(b[14], b[15])
	if !ok || minute > 59 {
		return time.Time{}, false
	}
	sec, ok := twoDigits(b[17], b[18])
	if !ok || sec > 59 {
		return time.Time{}, false
	}
	if !s.dateOK || string(s.dateKey[:]) != string(b[:10]) {
		base, ok := parseDateUTC(b[:10])
		if !ok {
			return time.Time{}, false
		}
		copy(s.dateKey[:], b[:10])
		s.dateBase = base
		s.dateOK = true
	}
	// Midnight + in-range h/m/s is exactly time.Date(y, mo, d, h, m,
	// sec, 0, UTC): no rollover, same wall/ext encoding, same UTC loc.
	return s.dateBase.Add(time.Duration(hour*3600+minute*60+sec) * time.Second), true
}

// parseDateUTC parses and validates a canonical "2006-01-02" day,
// returning its midnight UTC.
func parseDateUTC(b []byte) (time.Time, bool) {
	if b[4] != '-' || b[7] != '-' {
		return time.Time{}, false
	}
	y1, ok := twoDigits(b[0], b[1])
	if !ok {
		return time.Time{}, false
	}
	y2, ok := twoDigits(b[2], b[3])
	if !ok {
		return time.Time{}, false
	}
	year := y1*100 + y2
	month, ok := twoDigits(b[5], b[6])
	if !ok || month < 1 || month > 12 {
		return time.Time{}, false
	}
	day, ok := twoDigits(b[8], b[9])
	if !ok || day < 1 || day > daysInMonth(year, month) {
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC), true
}

func parseTimeSlow(b []byte) (time.Time, bool) {
	t, err := time.Parse(timeLayout, string(b))
	return t, err == nil
}

// twoDigits parses a 2-byte digit pair.
func twoDigits(b0, b1 byte) (int, bool) {
	d0 := uint(b0) - '0'
	d1 := uint(b1) - '0'
	if d0 > 9 || d1 > 9 {
		return 0, false
	}
	return int(d0*10 + d1), true
}

func daysInMonth(year, month int) int {
	switch month {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	default:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	}
}
