package straggle

import (
	"errors"
	"fmt"
)

// Reed–Solomon erasure code over GF(256), systematic form: k data shards
// plus m parity shards from a Cauchy matrix, so the full generator
// [I ; C] has every k×k submatrix nonsingular (the MDS property) — any k
// of the n = k+m shards reconstruct the data exactly. This is the same
// construction production erasure-coded stores use; the coded execution
// mode runs the real arithmetic so a decode bug shows up as an output
// mismatch, not a silently optimistic simulation.

// GF(256) with the AES polynomial x^8+x^4+x^3+x+1 (0x11d reduction),
// generator 2. Log/exp tables make mul/div O(1).
var (
	gfExp [512]byte
	gfLog [256]int
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

func gfInv(a byte) byte {
	if a == 0 {
		panic("straggle: GF(256) inverse of zero")
	}
	return gfExp[255-gfLog[a]]
}

// Code is one (k, n) systematic MDS code.
type Code struct {
	k, n int
	// parity is the m×k Cauchy matrix: parity[j][i] = 1/(x_i ⊕ y_j) with
	// x_i = i and y_j = k+j, all 2k+m points distinct in GF(256).
	parity [][]byte
}

// ErrCode reports an unconstructible or undecodable code instance.
var ErrCode = errors.New("straggle: reed-solomon")

// NewCode builds the (k, n) code. Requires 1 ≤ k < n and n ≤ 255 so the
// Cauchy evaluation points stay distinct field elements.
func NewCode(k, n int) (*Code, error) {
	if k < 1 || n <= k || n > 255 {
		return nil, fmt.Errorf("%w: invalid (k=%d, n=%d)", ErrCode, k, n)
	}
	m := n - k
	parity := make([][]byte, m)
	for j := 0; j < m; j++ {
		row := make([]byte, k)
		for i := 0; i < k; i++ {
			row[i] = gfInv(byte(i) ^ byte(k+j))
		}
		parity[j] = row
	}
	return &Code{k: k, n: n, parity: parity}, nil
}

// ParityShards computes the m parity shards from the k data shards. All
// data shards must share one length; the parity shards match it.
func (c *Code) ParityShards(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("%w: got %d data shards, want %d", ErrCode, len(data), c.k)
	}
	size := len(data[0])
	for i, d := range data {
		if len(d) != size {
			return nil, fmt.Errorf("%w: shard %d length %d != %d", ErrCode, i, len(d), size)
		}
	}
	out := make([][]byte, c.n-c.k)
	for j := range out {
		p := make([]byte, size)
		row := c.parity[j]
		for i, d := range data {
			coef := row[i]
			if coef == 0 {
				continue
			}
			for b, v := range d {
				p[b] ^= gfMul(coef, v)
			}
		}
		out[j] = p
	}
	return out, nil
}

// Reconstruct fills the missing (nil) data shards of a length-n shard
// slice in place, using any k present shards. Parity shards are not
// regenerated. Fails if fewer than k shards survive.
func (c *Code) Reconstruct(shards [][]byte) error {
	if len(shards) != c.n {
		return fmt.Errorf("%w: got %d shards, want %d", ErrCode, len(shards), c.n)
	}
	missing := 0
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			missing++
		}
	}
	if missing == 0 {
		return nil
	}
	// Generator rows of the first k surviving shards.
	var rows [][]byte
	var have [][]byte
	size := -1
	for i := 0; i < c.n && len(rows) < c.k; i++ {
		if shards[i] == nil {
			continue
		}
		row := make([]byte, c.k)
		if i < c.k {
			row[i] = 1
		} else {
			copy(row, c.parity[i-c.k])
		}
		rows = append(rows, row)
		have = append(have, shards[i])
		if size < 0 {
			size = len(shards[i])
		} else if len(shards[i]) != size {
			return fmt.Errorf("%w: shard length mismatch", ErrCode)
		}
	}
	if len(rows) < c.k {
		return fmt.Errorf("%w: only %d of %d shards survive", ErrCode, len(rows), c.k)
	}
	inv, err := invertMatrix(rows)
	if err != nil {
		return err
	}
	// data[i] = Σ_j inv[i][j] · have[j]; only the missing rows are needed.
	for i := 0; i < c.k; i++ {
		if shards[i] != nil {
			continue
		}
		d := make([]byte, size)
		for j := 0; j < c.k; j++ {
			coef := inv[i][j]
			if coef == 0 {
				continue
			}
			for b, v := range have[j] {
				d[b] ^= gfMul(coef, v)
			}
		}
		shards[i] = d
	}
	return nil
}

// invertMatrix inverts a k×k GF(256) matrix by Gauss–Jordan elimination.
// The Cauchy construction guarantees nonsingularity; a zero pivot means a
// caller-side bug and returns a typed error rather than garbage.
func invertMatrix(m [][]byte) ([][]byte, error) {
	k := len(m)
	a := make([][]byte, k)
	inv := make([][]byte, k)
	for i := range m {
		a[i] = append([]byte(nil), m[i]...)
		inv[i] = make([]byte, k)
		inv[i][i] = 1
	}
	for col := 0; col < k; col++ {
		pivot := -1
		for r := col; r < k; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("%w: singular decode matrix", ErrCode)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		scale := gfInv(a[col][col])
		for c := 0; c < k; c++ {
			a[col][c] = gfMul(a[col][c], scale)
			inv[col][c] = gfMul(inv[col][c], scale)
		}
		for r := 0; r < k; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for c := 0; c < k; c++ {
				a[r][c] ^= gfMul(f, a[col][c])
				inv[r][c] ^= gfMul(f, inv[col][c])
			}
		}
	}
	return inv, nil
}
