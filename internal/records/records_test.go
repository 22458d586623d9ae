package records

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordSize(t *testing.T) {
	r := Record{Sub: "movie-1", Payload: "hello"}
	if got, want := r.Size(), int64(7+5+overheadBytes); got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Sub: "m", Time: 5, Rating: 3.5, Payload: strings.Repeat("x", 40)}
	s := r.String()
	if !strings.Contains(s, "m") || !strings.Contains(s, "…") {
		t.Errorf("String() = %q", s)
	}
}

func TestTotalSizeAndBySub(t *testing.T) {
	recs := []Record{
		{Sub: "a", Payload: "1234"},
		{Sub: "a", Payload: "12"},
		{Sub: "b", Payload: ""},
	}
	if got := TotalSize(recs); got != recs[0].Size()+recs[1].Size()+recs[2].Size() {
		t.Errorf("TotalSize = %d", got)
	}
	by := BySub(recs)
	if len(by) != 2 {
		t.Fatalf("BySub groups = %d, want 2", len(by))
	}
	if by["a"] != recs[0].Size()+recs[1].Size() {
		t.Errorf("BySub[a] = %d", by["a"])
	}
	if by["b"] != recs[2].Size() {
		t.Errorf("BySub[b] = %d", by["b"])
	}
}

func TestFilter(t *testing.T) {
	recs := []Record{{Sub: "a", Time: 1}, {Sub: "b", Time: 2}, {Sub: "a", Time: 3}}
	got := Filter(recs, "a")
	if len(got) != 2 || got[0].Time != 1 || got[1].Time != 3 {
		t.Errorf("Filter = %v", got)
	}
	if Filter(recs, "zzz") != nil {
		t.Error("Filter of absent sub should be nil")
	}
}

func TestCodecRoundtrip(t *testing.T) {
	recs := []Record{
		{Sub: "movie-00001", Time: 12345, Rating: 4.5, Payload: "great movie"},
		{Sub: "", Time: -7, Rating: 0, Payload: ""},
		{Sub: "x", Time: 1 << 40, Rating: 2.125, Payload: strings.Repeat("y", 1000)},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("roundtrip mismatch:\n got %v\nwant %v", got, recs)
	}
}

func TestCodecRoundtripQuick(t *testing.T) {
	f := func(sub, payload string, tm int64, rating uint16) bool {
		in := Record{Sub: sub, Time: tm, Rating: float64(rating) / 8, Payload: payload}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.Write(in) != nil || w.Flush() != nil {
			return false
		}
		out, err := NewReader(&buf).Read()
		return err == nil && out == in
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCodecEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil || len(got) != 0 {
		t.Errorf("empty stream: %v, %v", got, err)
	}
}

func TestCodecBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("XXXXjunk"))
	if _, err := r.Read(); err != ErrCorrupt {
		t.Errorf("bad magic err = %v, want ErrCorrupt", err)
	}
}

func TestCodecTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Record{Sub: "abc", Payload: "payload"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix (beyond the magic) must fail with ErrCorrupt or
	// yield no record — never a wrong record or a panic.
	for cut := 5; cut < len(full)-1; cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		_, err := r.Read()
		if err == nil {
			t.Fatalf("truncation at %d silently succeeded", cut)
		}
		if err != ErrCorrupt {
			t.Fatalf("truncation at %d: error %v, want ErrCorrupt", cut, err)
		}
	}
}

// encode renders recs in the wire format.
func encode(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sample returns n records with distinct, varied fields.
func sample(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Sub:     "movie-" + strconv.Itoa(i%37),
			Time:    int64(i*7919 - 5000),
			Rating:  float64(i%9000) / 1000,
			Payload: strings.Repeat("p", i%23),
		}
	}
	return recs
}

func TestCodecPrefixes(t *testing.T) {
	recs := sample(5)
	full := encode(t, recs)
	// ends[k] is the offset at which the first k records end.
	ends := []int{len(magic)}
	for _, r := range recs {
		ends = append(ends, ends[len(ends)-1]+len(encode(t, []Record{r}))-len(magic))
	}
	for cut := 0; cut <= len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		var got []Record
		var err error
		for err == nil {
			var rec Record
			if rec, err = r.Read(); err == nil {
				got = append(got, rec)
			}
		}
		if len(got) > len(recs) || len(got) > 0 && !reflect.DeepEqual(got, recs[:len(got)]) {
			t.Fatalf("cut %d: decoded %v, not a prefix of %v", cut, got, recs)
		}
		// A cut on a record boundary (or of the whole stream) is a clean
		// end; anything else is corruption.
		want := error(ErrCorrupt)
		if cut == 0 || slices.Contains(ends, cut) {
			want = io.EOF
		}
		if err != want {
			t.Fatalf("cut %d: %d records then %v, want %v", cut, len(got), err, want)
		}
		if i := slices.Index(ends, cut); i >= 0 && len(got) != i {
			t.Fatalf("cut %d on the end of record %d: decoded %d", cut, i, len(got))
		}
	}
}

func TestReadAllDoesNotAliasInput(t *testing.T) {
	recs := sample(50)
	wire := encode(t, recs)
	got, err := NewReader(bytes.NewReader(wire)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xff
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("overwriting the caller's buffer changed decoded records")
	}
}

// TestReadAllAllocsConstant: decoded strings share one copy of the stream
// and the record slice is sized once, so allocations do not grow with the
// record count.
func TestReadAllAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		wire := encode(t, sample(n))
		return testing.AllocsPerRun(5, func() {
			if _, err := NewReader(bytes.NewReader(wire)).ReadAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(100000); small != large {
		t.Errorf("ReadAll allocations: %v for 1 000 records, %v for 100 000", small, large)
	}
}

// TestReadAllFileSizedOnce: a file source is sized from Stat, so the copy
// grows once instead of doubling through io.Copy's 32 KB chunks.
func TestReadAllFileSizedOnce(t *testing.T) {
	allocs := func(n int) float64 {
		path := filepath.Join(t.TempDir(), "recs.dnr")
		if err := os.WriteFile(path, encode(t, sample(n)), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return testing.AllocsPerRun(5, func() {
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			got, err := NewReader(f).ReadAll()
			if err != nil || len(got) != n {
				t.Fatalf("read %d records, %v; want %d", len(got), err, n)
			}
		})
	}
	if small, large := allocs(1000), allocs(100000); small != large {
		t.Errorf("ReadAll allocations over a file: %v for 1 000 records, %v for 100 000", small, large)
	}
}

func BenchmarkReadAll(b *testing.B) {
	wire := encode(b, sample(200000))
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewReader(bytes.NewReader(wire)).ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// bufioReader is the streaming decoder the one-copy Reader replaced: it
// reads field by field through a bufio.Reader and allocates every string.
// It is kept as the reference the differential fuzz compares against.
type bufioReader struct {
	r       *bufio.Reader
	started bool
}

func newBufioReader(r io.Reader) *bufioReader {
	return &bufioReader{r: bufio.NewReader(r)}
}

func (r *bufioReader) Read() (Record, error) {
	if !r.started {
		var hdr [4]byte
		if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return Record{}, ErrCorrupt
			}
			return Record{}, err
		}
		if hdr != magic {
			return Record{}, ErrCorrupt
		}
		r.started = true
	}
	sub, err := r.getString()
	if err == io.EOF {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, eofIsCorrupt(err)
	}
	t, err := r.getVarint()
	if err != nil {
		return Record{}, eofIsCorrupt(err)
	}
	rat, err := r.getVarint()
	if err != nil {
		return Record{}, eofIsCorrupt(err)
	}
	payload, err := r.getString()
	if err != nil {
		return Record{}, eofIsCorrupt(err)
	}
	return Record{Sub: sub, Time: t, Rating: float64(rat) / 1000, Payload: payload}, nil
}

func eofIsCorrupt(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrCorrupt
	}
	return err
}

func (r *bufioReader) getVarint() (int64, error) {
	v, err := binary.ReadVarint(r.r)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return v, ErrCorrupt
	}
	return v, err
}

func (r *bufioReader) getString() (string, error) {
	n, err := r.getVarint()
	if err != nil {
		return "", err
	}
	if n < 0 || n > 1<<24 {
		return "", ErrCorrupt
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return "", eofIsCorrupt(err)
	}
	return string(buf), nil
}

func TestCodecHugeLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{'D', 'N', 'R', '1'})
	// Varint for a negative length.
	buf.Write([]byte{0x01})
	if _, err := NewReader(&buf).Read(); err != ErrCorrupt {
		t.Errorf("negative length err = %v, want ErrCorrupt", err)
	}
}
