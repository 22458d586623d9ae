package gen

import (
	"math/rand"
	"strings"
)

// arenaChunk is the capacity of one payload chunk: large enough that a
// suite-sized log (≈ 60 MB of payload) costs a few dozen allocations,
// small enough that a kept payload pins little.
const arenaChunk = 1 << 20

// arena holds one log's payloads. Each payload is appended to the current
// chunk, a strings.Builder, and cut from the chunk's String() without a
// copy (records.Reader's idiom), so a log costs one allocation per chunk
// instead of one per record. A chunk never grows: a payload that does not
// fit in what is left of it opens a new one, so no payload points into a
// buffer the Builder abandoned while growing. A kept payload keeps its
// whole chunk alive.
type arena struct {
	strings.Builder
	chunk int // capacity of a new chunk
}

// newArena returns an arena for payloads of total bytes at most in all;
// total only caps the chunk size of a small log.
func newArena(total int) *arena {
	return &arena{chunk: min(arenaChunk, total)}
}

// cut appends p to the arena and returns the appended bytes as a string.
func (a *arena) cut(p []byte) string {
	if a.Cap()-a.Len() < len(p) {
		a.Builder = strings.Builder{}
		a.Grow(max(a.chunk, len(p)))
	}
	start := a.Len()
	a.Write(p)
	return a.String()[start:]
}

// tokenCap is the fixed size of a token: room for the space and the
// longest word of any vocabulary (a lowercase event type, 29 bytes).
const tokenCap = 32

// token is one word of payload text and the space before it, zero-padded
// to tokenCap bytes, so that writing it is one fixed-size move instead of
// a memmove call.
type token struct {
	b [tokenCap]byte
	n int
}

// newToken returns the token of word. It panics if word does not fit.
func newToken(word string) token {
	if len(word) >= tokenCap {
		panic("gen: token longer than tokenCap: " + word)
	}
	t := token{n: 1 + len(word)}
	t.b[0] = ' '
	copy(t.b[1:], word)
	return t
}

// tokens returns the tokens of words.
func tokens(words []string) []token {
	out := make([]token, len(words))
	for i, w := range words {
		out[i] = newToken(w)
	}
	return out
}

// line is a payload being built. Tokens are written as whole blocks, so
// its buffer has tokenCap bytes of room past the longest payload.
type line struct {
	buf []byte
	n   int
}

// newLine returns a line for payloads of at most max bytes.
func newLine(max int) *line { return &line{buf: make([]byte, max+tokenCap)} }

// word appends t.
func (l *line) word(t *token) {
	*(*[tokenCap]byte)(l.buf[l.n:]) = t.b
	l.n += t.n
}

// str appends s.
func (l *line) str(s string) { l.n += copy(l.buf[l.n:], s) }

// padded appends 0 ≤ v < 10^width in decimal with width digits, as
// fmt's %0<width>d does.
func (l *line) padded(v, width int) {
	for i := l.n + width - 1; i >= l.n; i-- {
		l.buf[i] = byte('0' + v%10)
		v /= 10
	}
	l.n += width
}

// intn returns rng.Intn(n) for 0 < n < 1<<31, where rng draws from src,
// and leaves src where rng.Intn(n) leaves it. It reads src.Int63 directly,
// as Int31n does through three wrappers: draws at or above Int31n's bound
// are rejected and the remainder is taken. For a power of two the bound
// rejects nothing and the remainder is Int31n's mask. Called with a
// constant n it inlines, so the remainder is a multiply or a mask, not a
// divide.
func intn(src rand.Source, n int) int {
	for {
		if v := int(src.Int63() >> 32); v < 1<<31-(1<<31)%n {
			return v % n
		}
	}
}
