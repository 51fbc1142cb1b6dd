package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// oracleScan is the reference ingestion path: the encoding/csv-backed
// CSVReader. It returns the records, the skip count and whether
// construction succeeded, for differential comparison with the Scanner.
func oracleScan(data []byte) (records []Record, skipped int, ok bool, err error) {
	cr, cerr := NewCSVReader(bytes.NewReader(data))
	if cerr != nil {
		return nil, 0, false, nil
	}
	records, err = Collect(SourceFunc(cr.Next))
	return records, cr.Skipped(), true, err
}

// scannerScan runs the custom Scanner over the same bytes.
func scannerScan(data []byte) (records []Record, skipped int, ok bool, err error) {
	sc, serr := NewScanner(bytes.NewReader(data))
	if serr != nil {
		return nil, 0, false, nil
	}
	records, err = Collect(sc)
	return records, int(sc.Stats().SkippedRows()), true, err
}

// recordsEquivalent compares two records field by field. Times must be
// the same instant at the same zone offset (offsets may come from
// distinct FixedZone allocations, so Time values are not ==-comparable).
func recordsEquivalent(a, b Record) error {
	if !a.Start.Equal(b.Start) || !a.End.Equal(b.End) {
		return fmt.Errorf("instants differ: %v/%v vs %v/%v", a.Start, a.End, b.Start, b.End)
	}
	_, ao := a.Start.Zone()
	_, bo := b.Start.Zone()
	if ao != bo {
		return fmt.Errorf("start zone offset %d vs %d", ao, bo)
	}
	_, ao = a.End.Zone()
	_, bo = b.End.Zone()
	if ao != bo {
		return fmt.Errorf("end zone offset %d vs %d", ao, bo)
	}
	if a.UserID != b.UserID || a.TowerID != b.TowerID || a.Bytes != b.Bytes ||
		a.Address != b.Address || a.Tech != b.Tech {
		return fmt.Errorf("fields differ: %+v vs %+v", a, b)
	}
	return nil
}

// compareScan runs both paths on data and fails on any divergence.
func compareScan(t *testing.T, data []byte) {
	t.Helper()
	wantRecs, wantSkip, wantOK, wantErr := oracleScan(data)
	gotRecs, gotSkip, gotOK, gotErr := scannerScan(data)
	if wantOK != gotOK {
		t.Fatalf("construction: oracle ok=%v, scanner ok=%v\ninput: %q", wantOK, gotOK, data)
	}
	if !wantOK {
		return
	}
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("terminal error: oracle %v, scanner %v\ninput: %q", wantErr, gotErr, data)
	}
	if wantErr != nil {
		return
	}
	if gotSkip != wantSkip {
		t.Fatalf("skipped: oracle %d, scanner %d\ninput: %q", wantSkip, gotSkip, data)
	}
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("records: oracle %d, scanner %d\ninput: %q", len(wantRecs), len(gotRecs), data)
	}
	for i := range wantRecs {
		if err := recordsEquivalent(wantRecs[i], gotRecs[i]); err != nil {
			t.Fatalf("record %d: %v\ninput: %q", i, err, data)
		}
	}
}

const scanHeader = "user_id,start,end,tower_id,address,bytes,tech\n"

// TestScannerMatchesCSVReader pits the custom scanner against the
// encoding/csv oracle on the structured corner cases: quoting, CRLF,
// truncated final lines, multi-line fields, blank lines and every kind
// of malformed row.
func TestScannerMatchesCSVReader(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"header-only", scanHeader},
		{"header-no-newline", strings.TrimSuffix(scanHeader, "\n")},
		{"plain", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE\n"},
		{"no-final-newline", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,3G"},
		{"crlf", strings.ReplaceAll(scanHeader, "\n", "\r\n") + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE\r\n"},
		{"trailing-cr-at-eof", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE\r"},
		{"blank-lines", scanHeader + "\n\r\n1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE\n\n"},
		{"quoted-address", scanHeader + `1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,"No.500 Century Road, Pudong",100,LTE` + "\n"},
		{"escaped-quotes", scanHeader + `1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,"say ""hi"", ok",100,LTE` + "\n"},
		{"multiline-field", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,\"line one\nline two\",100,LTE\n2,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,5,3G\n"},
		{"multiline-crlf-field", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,\"a\r\nb\",100,LTE\r\n"},
		{"bare-quote", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,ad\"dr,100,LTE\n2,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,5,3G\n"},
		{"unterminated-quote", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,\"addr,100,LTE\n"},
		{"quote-then-junk", scanHeader + `1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,"addr"x,100,LTE` + "\n2,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,5,3G\n"},
		{"too-few-fields", scanHeader + "1,2,3\n5,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,3G\n"},
		{"too-many-fields", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE,extra\n"},
		{"bad-int", scanHeader + "x,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE\n"},
		{"plus-signed-int", scanHeader + "+1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,+7,addr,+100,LTE\n"},
		{"overflow-int", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,99999999999999999999,LTE\n"},
		{"huge-but-valid-int", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,9223372036854775807,LTE\n"},
		{"negative-bytes", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,-5,LTE\n"},
		{"bad-tech", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,5G\n"},
		{"bad-time", scanHeader + "1,not-a-time,2014-08-01T08:05:00Z,7,addr,100,LTE\n"},
		{"offset-time", scanHeader + "1,2014-08-01T08:00:00+08:00,2014-08-01T08:05:00+08:00,7,addr,100,LTE\n"},
		{"negative-offset-time", scanHeader + "1,2014-08-01T08:00:00-05:30,2014-08-01T09:05:00-05:30,7,addr,100,LTE\n"},
		{"fractional-seconds", scanHeader + "1,2014-08-01T08:00:00.25Z,2014-08-01T08:05:00.75Z,7,addr,100,LTE\n"},
		{"lowercase-z", scanHeader + "1,2014-08-01T08:00:00z,2014-08-01T08:05:00z,7,addr,100,LTE\n"},
		{"single-digit-hour", scanHeader + "1,2014-08-01T8:00:00Z,2014-08-01T8:05:00Z,7,addr,100,LTE\n"},
		{"leap-day", scanHeader + "1,2016-02-29T08:00:00Z,2016-02-29T08:05:00Z,7,addr,100,LTE\n"},
		{"bad-leap-day", scanHeader + "1,2015-02-29T08:00:00Z,2015-02-29T08:05:00Z,7,addr,100,LTE\n"},
		{"hour-24", scanHeader + "1,2014-08-01T24:00:00Z,2014-08-01T24:05:00Z,7,addr,100,LTE\n"},
		{"end-before-start", scanHeader + "1,2014-08-01T08:05:00Z,2014-08-01T08:00:00Z,7,addr,100,LTE\n"},
		{"empty-fields", scanHeader + ",,,,,,\n"},
		{"quoted-empty", scanHeader + `1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,"",100,LTE` + "\n"},
		{"quoted-numeric", scanHeader + `"1","2014-08-01T08:00:00Z","2014-08-01T08:05:00Z","7","addr","100","LTE"` + "\n"},
		{"bad-header", "foo,bar\n1,2\n"},
		{"bad-header-count", "user_id,start,end\n"},
		{"wrong-first-column", "uid,start,end,tower_id,address,bytes,tech\n"},
		{"cr-inside-field", scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,ad\rdr,100,LTE\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			compareScan(t, []byte(c.data))
		})
	}
}

// TestScannerMatchesCSVReaderRandom cross-checks the two paths over
// randomly corrupted synthetic traces.
func TestScannerMatchesCSVReaderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		records := randomRecords(rng, 40)
		var buf bytes.Buffer
		if err := WriteCSV(&buf, records); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		// Corrupt a few random bytes to exercise the malformed-row paths.
		for i := 0; i < trial%5; i++ {
			pos := rng.Intn(len(data))
			data[pos] = byte(`",x01Z-`[rng.Intn(7)])
		}
		compareScan(t, data)
	}
}

// TestScannerSmallReads re-runs the scanner with a one-byte reader so
// every buffer refill path is exercised.
func TestScannerSmallReads(t *testing.T) {
	records := []Record{validRecord()}
	r2 := validRecord()
	r2.Address = "quoted, \"address\"\nwith newline"
	r2.UserID = 9
	records = append(records, r2)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(iotest{r: &buf})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Collect(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Address != r2.Address {
		t.Fatalf("round trip through 1-byte reads failed: %+v", back)
	}
}

// iotest yields one byte per Read.
type iotest struct {
	r io.Reader
}

func (t iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return t.r.Read(p)
}

// TestScannerAbortsOnIOError mirrors the CSVReader regression test: a
// non-EOF error from the underlying reader must abort the stream.
func TestScannerAbortsOnIOError(t *testing.T) {
	broken := errors.New("read: connection reset")
	payload := scanHeader + "1,2014-08-01T08:00:00Z,2014-08-01T08:05:00Z,7,addr,100,LTE\n"
	sc, err := NewScanner(&flakyReader{payload: strings.NewReader(payload), err: broken})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next(sc); err != nil {
		t.Fatalf("first record should parse, got %v", err)
	}
	if _, err := next(sc); !errors.Is(err, broken) {
		t.Fatalf("I/O error should abort the stream, got %v", err)
	}
	if _, err := next(sc); !errors.Is(err, broken) {
		t.Fatalf("error should be sticky, got %v", err)
	}
}

// dataWithErrReader returns a non-EOF error together with the final
// chunk of its payload, as the io.Reader contract permits.
type dataWithErrReader struct {
	data []byte
	err  error
}

func (r *dataWithErrReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	if len(r.data) == 0 {
		return n, r.err
	}
	return n, nil
}

// TestScannerServesBufferedRecordsBeforeReadError pins the latched-error
// behaviour: when a Read returns data together with a non-EOF error, the
// complete records in that data are yielded before the error surfaces —
// exactly what the bufio-backed CSVReader does.
func TestScannerServesBufferedRecordsBeforeReadError(t *testing.T) {
	broken := errors.New("read: disk gone")
	var buf bytes.Buffer
	records := make([]Record, 50)
	for i := range records {
		records[i] = validRecord()
		records[i].UserID = i
	}
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	drain := func(src Source) ([]Record, error) {
		var out []Record
		for {
			r, err := next(src)
			if err != nil {
				return out, err
			}
			out = append(out, r)
		}
	}
	cr, err := NewCSVReader(&dataWithErrReader{data: data, err: broken})
	if err != nil {
		t.Fatal(err)
	}
	want, werr := drain(SourceFunc(cr.Next))
	if !errors.Is(werr, broken) || len(want) != len(records) {
		t.Fatalf("oracle: %d records, err %v — expected all %d then the read error",
			len(want), werr, len(records))
	}

	sc, err := NewScanner(&dataWithErrReader{data: data, err: broken})
	if err != nil {
		t.Fatalf("scanner must construct from buffered data, got %v", err)
	}
	got, gerr := drain(sc)
	if !errors.Is(gerr, broken) {
		t.Fatalf("scanner terminal error = %v, want the read error", gerr)
	}
	if len(got) != len(want) {
		t.Fatalf("scanner yielded %d buffered records before the error, oracle %d", len(got), len(want))
	}
	for i := range want {
		if err := recordsEquivalent(want[i], got[i]); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
}

// TestScannerZeroAlloc asserts the headline property of the tentpole:
// once the scanner has warmed its buffers and address intern table,
// batch scanning allocates nothing per record.
func TestScannerZeroAlloc(t *testing.T) {
	var buf bytes.Buffer
	records := make([]Record, 4096)
	for i := range records {
		r := validRecord()
		r.UserID = i % 97
		r.TowerID = i % 13
		r.Bytes = int64(i)
		records[i] = r
	}
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	sc, err := NewScanner(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Record, 512)
	// Warm-up: buffers grow, the address interns, the time cache fills.
	if _, err := sc.NextBatch(batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sc.NextBatch(batch); err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("steady-state NextBatch allocates %.1f times per 512-record batch, want ~0", allocs)
	}
}

// TestParseIntFieldMatchesStrconv differentially validates the fast
// integer parser.
func TestParseIntFieldMatchesStrconv(t *testing.T) {
	cases := []string{
		"", "0", "1", "-1", "+1", "007", "-007", "123456789", "-123456789",
		"999999999999999999", "1000000000000000000", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"99999999999999999999", "1x", "x1", "--1", "+-1", "1.5", " 1", "1 ",
		"1_000", "0x10",
	}
	for _, c := range cases {
		want, werr := strconv.ParseInt(c, 10, 64)
		got, ok := parseIntField([]byte(c))
		if ok != (werr == nil) {
			t.Errorf("%q: ok=%v, strconv err=%v", c, ok, werr)
			continue
		}
		if ok && got != want {
			t.Errorf("%q: got %d, want %d", c, got, want)
		}
	}
}

// TestParseTimeFieldMatchesTimeParse differentially validates the fast
// timestamp parser, including zone offsets and instants. Canonical UTC
// forms must be bit-identical (==) to time.Parse's result — the parallel
// equivalence tests compare whole Records with != — including through
// the scanner's single-entry date cache.
func TestParseTimeFieldMatchesTimeParse(t *testing.T) {
	cases := []string{
		"2014-08-01T08:00:00Z", "2016-02-29T23:59:59Z", "2015-02-29T00:00:00Z",
		"2014-12-31T23:59:59Z", "0000-01-01T00:00:00Z", "9999-12-31T23:59:59Z",
		"2014-08-01T08:00:00+08:00", "2014-08-01T08:00:00-05:30",
		"2014-08-01T08:00:00.123Z", "2014-08-01T08:00:00z",
		"2014-08-01T24:00:00Z", "2014-08-01T08:60:00Z", "2014-08-01T08:00:60Z",
		"2014-13-01T08:00:00Z", "2014-00-01T08:00:00Z", "2014-08-00T08:00:00Z",
		"2014-08-32T08:00:00Z", "2014-08-1T08:00:00Z", "2014-8-01T08:00:00Z",
		"2014-08-01 08:00:00Z", "2014-08-01T8:00:00Z", "not-a-time", "",
		"2014-08-01T08:00:00", "2014-08-01T08:00:00+0800",
	}
	sc := newChunkScanner()
	for pass := 0; pass < 2; pass++ { // second pass hits the date cache
		for _, c := range cases {
			want, werr := time.Parse(timeLayout, c)
			got, ok := sc.parseTime([]byte(c))
			if ok != (werr == nil) {
				t.Errorf("%q: ok=%v, time.Parse err=%v", c, ok, werr)
				continue
			}
			if !ok {
				continue
			}
			if !got.Equal(want) {
				t.Errorf("%q: got %v, want %v", c, got, want)
			}
			_, goff := got.Zone()
			_, woff := want.Zone()
			if goff != woff {
				t.Errorf("%q: zone offset %d, want %d", c, goff, woff)
			}
			if strings.HasSuffix(c, "Z") && werr == nil && got != want {
				t.Errorf("%q: fast path not bit-identical to time.Parse", c)
			}
		}
	}
}

// TestWriteCSVMatchesEncodingCSV pins the append-based writer to the
// exact byte output of the encoding/csv implementation it replaced.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	records := []Record{validRecord()}
	r2 := validRecord()
	r2.Address = `Tricky "quoted", address`
	r2.Tech = Tech3G
	r3 := validRecord()
	r3.Address = "multi\nline\raddr"
	r4 := validRecord()
	r4.Address = " leading space"
	r5 := validRecord()
	r5.Address = `\.`
	r6 := validRecord()
	r6.Address = ""
	records = append(records, r2, r3, r4, r5, r6)

	var got bytes.Buffer
	if err := WriteCSV(&got, records); err != nil {
		t.Fatal(err)
	}
	want := oracleWriteCSV(t, records)
	if got.String() != want {
		t.Errorf("append writer output differs from encoding/csv:\ngot:  %q\nwant: %q", got.String(), want)
	}

	// The streaming writer emits the same bytes record by record.
	var streamed bytes.Buffer
	cw := NewCSVWriter(&streamed)
	for _, r := range records {
		if err := cw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if streamed.String() != want {
		t.Errorf("streaming writer output differs from encoding/csv")
	}
}

// oracleWriteCSV is the PR 1 write path — encoding/csv plus per-field
// strconv/Format — kept as the byte-exactness oracle for the append
// writers.
func oracleWriteCSV(t *testing.T, records []Record) string {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(csvHeader); err != nil {
		t.Fatal(err)
	}
	row := make([]string, len(csvHeader))
	for _, r := range records {
		row[0] = strconv.Itoa(r.UserID)
		row[1] = r.Start.Format(timeLayout)
		row[2] = r.End.Format(timeLayout)
		row[3] = strconv.Itoa(r.TowerID)
		row[4] = r.Address
		row[5] = strconv.FormatInt(r.Bytes, 10)
		row[6] = string(r.Tech)
		if err := cw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
