package hashutil

import (
	"hash/fnv"
	"testing"
)

// The package's reason to exist is bit-compatibility with hash/fnv's
// New64a: loadgen summary digests and chaos corpus digests were computed
// with the stdlib before the dedupe and must not change.

func TestSum64MatchesStdlib(t *testing.T) {
	inputs := []string{
		"",
		"a",
		"hello, world",
		"node-17/block-42",
		string([]byte{0, 1, 2, 0xff, 0x80, 0x7f}),
	}
	for _, in := range inputs {
		std := fnv.New64a()
		std.Write([]byte(in))
		d := New()
		d.Write([]byte(in))
		if got := d.Sum64(); got != std.Sum64() {
			t.Errorf("Digest.Sum64(%q) = %#x, stdlib %#x", in, got, std.Sum64())
		}
		if got := Sum64String(in); got != std.Sum64() {
			t.Errorf("Sum64String(%q) = %#x, stdlib %#x", in, got, std.Sum64())
		}
	}
}

func TestDigestStreamingEquivalence(t *testing.T) {
	// Chunked writes must equal the one-shot hash (the loadgen digest
	// streams fmt.Fprintf pieces).
	whole := "shard=3 key=movie-99 status=ok\n"
	d := New()
	d.WriteString(whole[:7])
	d.Write([]byte(whole[7:19]))
	d.WriteString(whole[19:])
	if d.Sum64() != Sum64String(whole) {
		t.Errorf("streamed %#x != one-shot %#x", d.Sum64(), Sum64String(whole))
	}
}

func TestDigestWriteNeverFails(t *testing.T) {
	d := New()
	n, err := d.Write(make([]byte, 1024))
	if n != 1024 || err != nil {
		t.Errorf("Write = (%d, %v), want (1024, nil)", n, err)
	}
}

func TestNewStartsAtOffsetBasis(t *testing.T) {
	if got := New().Sum64(); got != fnvOffset64 {
		t.Errorf("empty digest = %#x, want offset basis %#x", got, fnvOffset64)
	}
}

// Mix64 is the finalizer the chaos RNG, the read-error draw and the
// rendezvous score share: one step of the chaos stream seeded at 1 is
// Mix64(1 + gamma), pinned in internal/chaos's TestRNGStability.
func TestMix64KnownAnswer(t *testing.T) {
	if got := Mix64(1 + 0x9e3779b97f4a7c15); got != 0x910a2dec89025cc1 {
		t.Errorf("Mix64(1+gamma) = %#x, want 0x910a2dec89025cc1", got)
	}
}
