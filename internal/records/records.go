// Package records defines the log-record data model shared by the dataset
// generators, the HDFS model and the MapReduce applications.
//
// The paper works on "lists of records, each consisting of several fields
// such as source/user id, log time, destination, etc." (§II-A). A Record
// here carries the sub-dataset key (movie id, event type, …), a timestamp,
// and a free-form payload; Size() is the record's on-disk footprint, the
// quantity ElasticMap accounts per block (|b ∩ s| is a byte count).
package records

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"strings"
)

// Record is one log entry.
type Record struct {
	// Sub is the sub-dataset key this record belongs to (e.g. a movie id
	// such as "movie-00042" or a GitHub event type such as "IssueEvent").
	Sub string
	// Time is the event time in seconds since the simulated epoch. Records
	// in a dataset are stored chronologically, which is what creates
	// content clustering at the block level.
	Time int64
	// Rating is a small numeric field (movie rating, event weight); kept so
	// MovingAverage has a real numeric series to smooth.
	Rating float64
	// Payload is the free-form body (review text, log line).
	Payload string
}

// overheadBytes approximates the fixed per-record framing cost (key length
// prefix, timestamp, rating) in the on-disk representation.
const overheadBytes = 16

// Size returns the record's storage footprint in bytes. Block packing and
// all |b ∩ s| accounting use this value.
func (r Record) Size() int64 {
	return int64(len(r.Sub) + len(r.Payload) + overheadBytes)
}

// String renders a compact human-readable form.
func (r Record) String() string {
	p := r.Payload
	if len(p) > 24 {
		p = p[:24] + "…"
	}
	return fmt.Sprintf("{%s t=%d r=%.1f %q}", r.Sub, r.Time, r.Rating, p)
}

// TotalSize sums Size over a slice of records.
func TotalSize(recs []Record) int64 {
	var n int64
	for _, r := range recs {
		n += r.Size()
	}
	return n
}

// BySub groups record byte counts by sub-dataset key: the ground-truth
// |b ∩ s| map for one block, against which ElasticMap is validated.
func BySub(recs []Record) map[string]int64 {
	m := make(map[string]int64)
	for _, r := range recs {
		m[r.Sub] += r.Size()
	}
	return m
}

// Filter returns the records whose Sub equals sub, in order.
func Filter(recs []Record, sub string) []Record {
	var out []Record
	for _, r := range recs {
		if r.Sub == sub {
			out = append(out, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Binary codec. Varint-framed records so datasets can be persisted by
// cmd/datagen and re-read by the tools; also exercised by tests to make the
// storage model honest (what is counted is what is written).

var (
	// ErrCorrupt reports a malformed stream.
	ErrCorrupt = errors.New("records: corrupt stream")
	// magic guards encoded streams.
	magic = [4]byte{'D', 'N', 'R', '1'}
)

// Writer streams records in binary form.
type Writer struct {
	w       *bufio.Writer
	scratch []byte
	started bool
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), scratch: make([]byte, binary.MaxVarintLen64)}
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if !w.started {
		if _, err := w.w.Write(magic[:]); err != nil {
			return err
		}
		w.started = true
	}
	if err := w.putString(r.Sub); err != nil {
		return err
	}
	if err := w.putVarint(r.Time); err != nil {
		return err
	}
	// Ratings are quantized to 1/1000; rounding (not truncation) keeps the
	// quantization exact for values like -8.142 whose float64 product is
	// -8141.999….
	if err := w.putVarint(int64(math.Round(r.Rating * 1000))); err != nil {
		return err
	}
	if err := w.putString(r.Payload); err != nil {
		return err
	}
	return nil
}

// Flush flushes buffered output; call before closing the sink.
func (w *Writer) Flush() error {
	if !w.started {
		if _, err := w.w.Write(magic[:]); err != nil {
			return err
		}
		w.started = true
	}
	return w.w.Flush()
}

func (w *Writer) putVarint(v int64) error {
	n := binary.PutVarint(w.scratch, v)
	_, err := w.w.Write(w.scratch[:n])
	return err
}

func (w *Writer) putString(s string) error {
	if err := w.putVarint(int64(len(s))); err != nil {
		return err
	}
	_, err := w.w.WriteString(s)
	return err
}

// maxField bounds any sane record field (16 MiB). A longer declared length
// is corruption, whatever the stream holds after it.
const maxField = 1 << 24

// Reader decodes records from a stream. On first use it reads the rest of
// the stream once into one private string; every decoded record's Sub and
// Payload are substrings of that copy. Records therefore never alias the
// caller's buffer, but all of them share the one copy: it stays alive while
// any of them does, so a caller that keeps a Sub (say, as a map key) longer
// than its records should strings.Clone it.
//
// An empty stream is io.EOF. A stream that does not start with the magic,
// or that ends or overflows a varint inside a record, is ErrCorrupt. An
// error reading the source is returned as is. Once Read returns an error it
// returns that error again.
type Reader struct {
	src  io.Reader // nil once the stream is loaded
	data string    // the stream after the magic
	off  int       // decode position in data
	err  error     // sticky: the error Read last returned
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: r}
}

// Read returns the next record or io.EOF.
func (r *Reader) Read() (Record, error) {
	r.load()
	if r.err != nil {
		return Record{}, r.err
	}
	rec, next, err := decodeAt(r.data, r.off)
	if err != nil {
		r.err = err
		return Record{}, err
	}
	r.off = next
	return rec, nil
}

// ReadAll drains the stream: the records up to the first error, and that
// error unless it is the clean end.
func (r *Reader) ReadAll() ([]Record, error) {
	r.load()
	// A counting pass finds how many records precede the first error, so
	// the slice is sized once.
	n := 0
	for off := r.off; r.err == nil; n++ {
		_, next, err := decodeAt(r.data, off)
		if err != nil {
			break
		}
		off = next
	}
	out := make([]Record, n)
	for i := range out {
		out[i], r.off, _ = decodeAt(r.data, r.off)
	}
	if _, err := r.Read(); err != io.EOF {
		return out, err
	}
	return out, nil
}

// load copies the rest of the source into r.data and checks the magic,
// once. A source that reports its size grows the copy once.
func (r *Reader) load() {
	if r.src == nil {
		return
	}
	var b strings.Builder
	if n := sizeHint(r.src); n > 0 {
		b.Grow(n)
	}
	_, err := io.Copy(&b, r.src)
	r.src = nil
	s := b.String()
	switch {
	case err != nil:
		r.err = err
	case len(s) == 0:
		r.err = io.EOF
	case len(s) < len(magic) || s[:len(magic)] != string(magic[:]):
		r.err = ErrCorrupt
	default:
		r.data = s[len(magic):]
	}
}

// sizeHint returns how many bytes src says it holds, or 0 when it cannot
// tell: Len on in-memory readers, Stat on files.
func sizeHint(src io.Reader) int {
	switch s := src.(type) {
	case interface{ Len() int }:
		return s.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size())
		}
	}
	return 0
}

// decodeAt decodes the record at data[off:] and returns it with the offset
// after it. At the end of data it returns io.EOF; a record cut short, a
// varint overflow or an out-of-range length is ErrCorrupt.
func decodeAt(data string, off int) (Record, int, error) {
	if off == len(data) {
		return Record{}, off, io.EOF // a clean end between records
	}
	sub, off, ok := stringAt(data, off)
	if !ok {
		return Record{}, off, ErrCorrupt
	}
	t, off, ok := varintAt(data, off)
	if !ok {
		return Record{}, off, ErrCorrupt
	}
	rat, off, ok := varintAt(data, off)
	if !ok {
		return Record{}, off, ErrCorrupt
	}
	payload, off, ok := stringAt(data, off)
	if !ok {
		return Record{}, off, ErrCorrupt
	}
	return Record{Sub: sub, Time: t, Rating: float64(rat) / 1000, Payload: payload}, off, nil
}

// varintAt parses a zig-zag varint at data[off:] with binary.ReadVarint's
// overflow rule: at most MaxVarintLen64 bytes, the last of them ≤ 1. A
// one-byte varint (every short field length) takes the inlined fast path.
func varintAt(data string, off int) (int64, int, bool) {
	if off < len(data) && data[off] < 0x80 {
		return unzigzag(uint64(data[off])), off + 1, true
	}
	return varintLong(data, off)
}

func varintLong(data string, off int) (int64, int, bool) {
	var ux uint64
	for i, shift := 0, uint(0); i < binary.MaxVarintLen64 && off < len(data); i, shift = i+1, shift+7 {
		b := data[off]
		off++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, off, false
			}
			return unzigzag(ux | uint64(b)<<shift), off, true
		}
		ux |= uint64(b&0x7f) << shift
	}
	return 0, off, false
}

func unzigzag(ux uint64) int64 { return int64(ux>>1) ^ -int64(ux&1) }

// stringAt parses a length-prefixed field at data[off:] as a substring of
// data; the length is checked against maxField before anything else.
func stringAt(data string, off int) (string, int, bool) {
	n, off, ok := varintAt(data, off)
	if !ok || n < 0 || n > maxField || n > int64(len(data)-off) {
		return "", off, false
	}
	end := off + int(n)
	return data[off:end], end, true
}
