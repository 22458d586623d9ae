package records

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzReaderNeverPanics feeds arbitrary bytes to the record decoder: it
// must return records or an error, never panic or read out of bounds. On
// every input it must agree with the streaming reference decoder record for
// record and on the class of the error that ends the stream, and ReadAll
// must equal a loop of Read.
func FuzzReaderNeverPanics(f *testing.F) {
	// Seed corpus: valid stream, truncations, bad magic, huge lengths.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Record{Sub: "movie-1", Time: 42, Rating: 3.5, Payload: "seed payload"})
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("DNR1"))
	f.Add([]byte("XXXX"))
	f.Add([]byte{'D', 'N', 'R', '1', 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{})
	// A record whose Time is a 10-byte varint: the last byte may be at most
	// 1 (math.MinInt64), 2 overflows, and an 11th byte always does.
	long := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	for _, last := range [][]byte{{0x01}, {0x02}, {0xff, 0x00}} {
		rec := append(append([]byte("DNR1\x00"), long...), last...)
		f.Add(append(rec, 0x00, 0x00))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		ref := newBufioReader(bytes.NewReader(data))
		var recs []Record
		var end error
		for i := 0; i < 1000 && end == nil; i++ {
			got, err := r.Read()
			want, refErr := ref.Read()
			if err != refErr {
				t.Fatalf("record %d: error %v, reference decoder %v", i, err, refErr)
			}
			if err == nil && got != want {
				t.Fatalf("record %d: %+v, reference decoder %+v", i, got, want)
			}
			if err != nil && err != io.EOF && err != ErrCorrupt {
				t.Fatalf("unexpected error type: %v", err)
			}
			if err == nil {
				recs = append(recs, got)
			}
			end = err
		}
		if end == nil {
			return // more records than the loop reads
		}
		all, err := NewReader(bytes.NewReader(data)).ReadAll()
		if end == io.EOF {
			end = nil
		}
		if err != end || len(all) != len(recs) || len(all) > 0 && !reflect.DeepEqual(all, recs) {
			t.Fatalf("ReadAll = %d records, %v; Read loop = %d records, %v", len(all), err, len(recs), end)
		}
	})
}

// FuzzRoundtrip: any record we can write must read back identically.
func FuzzRoundtrip(f *testing.F) {
	f.Add("sub", "payload", int64(7), 3.5)
	f.Add("", "", int64(-1), 0.0)
	f.Add("movie-00000", "a longer payload with spaces", int64(1<<40), 4.875)
	f.Fuzz(func(t *testing.T, sub, payload string, tm int64, rating float64) {
		// The codec quantizes ratings to 1/1000; restrict to representable
		// values so equality is exact.
		rating = float64(int64(rating*1000)) / 1000
		if rating != rating { // NaN guard
			rating = 0
		}
		in := Record{Sub: sub, Time: tm, Rating: rating, Payload: payload}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		out, err := NewReader(&buf).Read()
		if err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", out, in)
		}
	})
}
