// Package hashutil holds the one FNV-1a implementation every layer
// shares. The shard router (internal/clusterd), the loadgen response
// digest, the chaos cluster replay digest and the Bloom filter's probe
// digests (internal/bloom) all previously instantiated hash/fnv
// separately; they now meet here so the constants and the streaming
// semantics cannot drift apart. The digest is bit-compatible
// with hash/fnv's New64a over the same byte stream, which is what keeps
// pre-refactor loadgen summary lines, chaos corpus digests and encoded
// Bloom filters unchanged.
package hashutil

// FNV-64a parameters (FNV-1a, 64-bit variant).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Digest is an incremental FNV-64a hash. The zero value is NOT ready to
// use — construct with New so the offset basis is folded in.
type Digest struct {
	h uint64
}

// New returns a Digest seeded with the FNV-64a offset basis.
func New() *Digest {
	return &Digest{h: fnvOffset64}
}

// Write implements io.Writer (so fmt.Fprintf can stream into the hash);
// it never fails.
func (d *Digest) Write(p []byte) (int, error) {
	h := d.h
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	d.h = h
	return len(p), nil
}

// WriteString hashes s without allocating.
func (d *Digest) WriteString(s string) {
	h := d.h
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	d.h = h
}

// Sum64 returns the current hash value.
func (d *Digest) Sum64() uint64 { return d.h }

// Sum64String is the one-shot string hash: FNV-64a(s).
func Sum64String(s string) uint64 {
	d := Digest{h: fnvOffset64}
	d.WriteString(s)
	return d.h
}
