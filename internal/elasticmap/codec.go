package elasticmap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"datanet/internal/bloom"
)

// The paper notes meta-data may outgrow memory and "can be stored into a
// database or distributed among multiple machines" (future work). This
// codec implements the persistence half: a compact binary encoding of an
// ElasticMap array that cmd/datanet uses to save and reload meta-data.

var (
	codecMagic = [4]byte{'D', 'N', 'E', '1'}
	// ErrCodec reports a malformed encoded array.
	ErrCodec = errors.New("elasticmap: corrupt encoding")
)

// Encode serializes the array.
func Encode(a *Array) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(codecMagic[:])
	putUvarint(&buf, uint64(len(a.metas)))
	putFloat(&buf, a.opts.Alpha)
	putFloat(&buf, a.opts.FPRate)
	putUvarint(&buf, uint64(a.opts.HashEntryBits))
	putFloat(&buf, a.opts.LoadFactor)
	for _, m := range a.metas {
		if err := encodeMeta(&buf, m); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

func encodeMeta(buf *bytes.Buffer, m *BlockMeta) error {
	putUvarint(buf, uint64(m.numSubs))
	putUvarint(buf, uint64(m.numHashed))
	putVarint(buf, m.threshold)
	putVarint(buf, m.delta)
	putVarint(buf, m.rawBytes)
	putUvarint(buf, uint64(len(m.hash)))
	// Sorted keys make the encoding canonical: equal arrays encode to
	// equal bytes, in this process and any other.
	subs := make([]string, 0, len(m.hash))
	for sub := range m.hash {
		subs = append(subs, sub)
	}
	slices.Sort(subs)
	for _, sub := range subs {
		putUvarint(buf, uint64(len(sub)))
		buf.WriteString(sub)
		putVarint(buf, m.hash[sub])
	}
	fb, err := m.filter.MarshalBinary()
	if err != nil {
		return err
	}
	putUvarint(buf, uint64(len(fb)))
	buf.Write(fb)
	return nil
}

// Decode reconstructs an array produced by Encode.
func Decode(data []byte) (*Array, error) {
	r := bytes.NewReader(data)
	var hdr [4]byte
	if _, err := r.Read(hdr[:]); err != nil || hdr != codecMagic {
		return nil, ErrCodec
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, ErrCodec
	}
	// A block's encoding occupies several bytes at minimum; reject counts
	// the input cannot possibly hold before allocating from them.
	if n > uint64(r.Len()) {
		return nil, ErrCodec
	}
	var opts Options
	if opts.Alpha, err = getFloat(r); err != nil {
		return nil, ErrCodec
	}
	if opts.FPRate, err = getFloat(r); err != nil {
		return nil, ErrCodec
	}
	heb, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, ErrCodec
	}
	opts.HashEntryBits = int(heb)
	if opts.LoadFactor, err = getFloat(r); err != nil {
		return nil, ErrCodec
	}
	metas := make([]*BlockMeta, n)
	for i := range metas {
		m, err := decodeMeta(r, opts)
		if err != nil {
			return nil, fmt.Errorf("%w (block %d)", err, i)
		}
		metas[i] = m
	}
	return FromMetas(metas, opts), nil
}

func decodeMeta(r *bytes.Reader, opts Options) (*BlockMeta, error) {
	m := &BlockMeta{opts: opts}
	var err error
	var u uint64
	if u, err = binary.ReadUvarint(r); err != nil {
		return nil, ErrCodec
	}
	m.numSubs = int(u)
	if u, err = binary.ReadUvarint(r); err != nil {
		return nil, ErrCodec
	}
	m.numHashed = int(u)
	if m.threshold, err = binary.ReadVarint(r); err != nil {
		return nil, ErrCodec
	}
	if m.delta, err = binary.ReadVarint(r); err != nil {
		return nil, ErrCodec
	}
	if m.rawBytes, err = binary.ReadVarint(r); err != nil {
		return nil, ErrCodec
	}
	if u, err = binary.ReadUvarint(r); err != nil {
		return nil, ErrCodec
	}
	nHash := int(u)
	// Every hash entry consumes at least two bytes of input, so any count
	// beyond the remaining length is corrupt — and, crucially, must be
	// rejected *before* sizing allocations from attacker-controlled data.
	if nHash < 0 || nHash > r.Len()/2 {
		return nil, ErrCodec
	}
	m.hash = make(map[string]int64, nHash)
	for j := 0; j < nHash; j++ {
		if u, err = binary.ReadUvarint(r); err != nil || u > uint64(r.Len()) {
			return nil, ErrCodec
		}
		name := make([]byte, u)
		if _, err = readFull(r, name); err != nil {
			return nil, ErrCodec
		}
		var sz int64
		if sz, err = binary.ReadVarint(r); err != nil {
			return nil, ErrCodec
		}
		m.hash[string(name)] = sz
	}
	if u, err = binary.ReadUvarint(r); err != nil || u > uint64(r.Len()) {
		return nil, ErrCodec
	}
	fb := make([]byte, u)
	if _, err = readFull(r, fb); err != nil {
		return nil, ErrCodec
	}
	m.filter = new(bloom.Filter)
	if err = m.filter.UnmarshalBinary(fb); err != nil {
		return nil, ErrCodec
	}
	return m, nil
}

func readFull(r *bytes.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		k, err := r.Read(p[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func putFloat(buf *bytes.Buffer, f float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	buf.Write(tmp[:])
}

func getFloat(r *bytes.Reader) (float64, error) {
	var tmp [8]byte
	if _, err := readFull(r, tmp[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(tmp[:])), nil
}
