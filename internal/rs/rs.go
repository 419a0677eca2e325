// Package rs implements a systematic Reed-Solomon erasure code over
// GF(2^8) — the "optimal erasure code" baseline of the RobuSTore paper
// (§2.2.2, Table 5-1).
//
// A Code with K data shards and M parity shards produces N = K+M total
// shards such that *any* K of them reconstruct the original data (the
// MDS property), at quadratic-in-K coding cost. The generator matrix is
// the K x K identity stacked on an M x K Cauchy matrix, so every K-row
// submatrix is invertible.
//
// The paper uses Reed-Solomon as the comparison point whose decoding
// bandwidth collapses as K grows (Table 5-1), motivating LT codes; the
// benchmarks in this package regenerate that table.
package rs

import (
	"errors"
	"fmt"
)

// Code is a Reed-Solomon erasure code with fixed K and M. It is
// immutable after construction and safe for concurrent use.
type Code struct {
	k, m int
	gen  *Matrix // (k+m) x k generator; top k rows are identity
}

// New constructs a code with k data shards and m parity shards.
// Requires k >= 1, m >= 0, k+m <= 256.
func New(k, m int) (*Code, error) {
	if k < 1 {
		return nil, fmt.Errorf("rs: k must be >= 1, got %d", k)
	}
	if m < 0 {
		return nil, fmt.Errorf("rs: m must be >= 0, got %d", m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("rs: k+m must be <= 256, got %d", k+m)
	}
	gen := NewMatrix(k+m, k)
	for i := 0; i < k; i++ {
		gen.Set(i, i, 1)
	}
	if m > 0 {
		c := cauchy(m, k)
		copy(gen.Data[k*k:], c.Data)
	}
	return &Code{k: k, m: m, gen: gen}, nil
}

// K returns the number of data shards.
func (c *Code) K() int { return c.k }

// M returns the number of parity shards.
func (c *Code) M() int { return c.m }

// N returns the total number of shards (K + M).
func (c *Code) N() int { return c.k + c.m }

// Errors returned by the coding operations.
var (
	ErrShardCount = errors.New("rs: wrong number of shards")
	ErrShardSize  = errors.New("rs: shards have mismatched or zero sizes")
	ErrTooFew     = errors.New("rs: too few shards present to reconstruct")
)

func (c *Code) checkShards(shards [][]byte, allowNil bool) (int, error) {
	if len(shards) != c.N() {
		return 0, ErrShardCount
	}
	size := -1
	for _, s := range shards {
		if s == nil {
			if !allowNil {
				return 0, ErrShardSize
			}
			continue
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, ErrShardSize
		}
	}
	if size <= 0 {
		return 0, ErrShardSize
	}
	return size, nil
}

// Encode computes the M parity shards from the K data shards, in
// place: shards[0:K] are the data (all non-nil, equal length), and
// shards[K:K+M] are overwritten with parity (allocated if nil).
func (c *Code) Encode(shards [][]byte) error {
	if len(shards) != c.N() {
		return ErrShardCount
	}
	size := -1
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			return ErrShardSize
		}
		if size < 0 {
			size = len(shards[i])
		} else if len(shards[i]) != size {
			return ErrShardSize
		}
	}
	if size <= 0 {
		return ErrShardSize
	}
	for i := c.k; i < c.N(); i++ {
		if len(shards[i]) != size {
			shards[i] = make([]byte, size)
		} else {
			clearSlice(shards[i])
		}
	}
	c.mulRows(c.gen, c.k, c.N(), shards[:c.k], shards[c.k:])
	return nil
}

// EncodeMulAdds returns how many multiply-accumulate passes Encode
// makes, one per nonzero coefficient of the parity rows. Each pass
// reads one whole data shard, so Encode processes EncodeMulAdds()/K
// bytes per data byte: the work that sets its bandwidth, counted
// without a clock.
func (c *Code) EncodeMulAdds() int {
	n := 0
	for r := c.k; r < c.N(); r++ {
		for _, coeff := range c.gen.Row(r) {
			if coeff != 0 {
				n++
			}
		}
	}
	return n
}

// mulRows computes out[r-from] = sum_j gen[r][j] * in[j] for rows
// [from, to) of gen.
func (c *Code) mulRows(gen *Matrix, from, to int, in, out [][]byte) {
	for r := from; r < to; r++ {
		row := gen.Row(r)
		dst := out[r-from]
		for j, coeff := range row {
			if coeff == 0 {
				continue
			}
			addMul(coeff, in[j], dst)
		}
	}
}

// Reconstruct fills in missing shards (nil entries) from the present
// ones. At least K shards must be non-nil. After a successful return,
// every entry of shards is populated.
func (c *Code) Reconstruct(shards [][]byte) error {
	size, err := c.checkShards(shards, true)
	if err != nil {
		return err
	}
	present := make([]int, 0, c.N())
	for i, s := range shards {
		if s != nil {
			present = append(present, i)
		}
	}
	if len(present) < c.k {
		return ErrTooFew
	}
	if len(present) == c.N() {
		return nil
	}
	// Decode data shards from the first K present shards.
	rows := present[:c.k]
	sub := c.gen.SubMatrix(rows)
	inv, err := sub.Invert()
	if err != nil {
		return err
	}
	in := make([][]byte, c.k)
	for i, r := range rows {
		in[i] = shards[r]
	}
	// Rebuild missing data shards.
	for i := 0; i < c.k; i++ {
		if shards[i] != nil {
			continue
		}
		dst := make([]byte, size)
		for j, coeff := range inv.Row(i) {
			if coeff == 0 {
				continue
			}
			addMul(coeff, in[j], dst)
		}
		shards[i] = dst
	}
	// Rebuild missing parity shards from the (now complete) data.
	for i := c.k; i < c.N(); i++ {
		if shards[i] != nil {
			continue
		}
		dst := make([]byte, size)
		for j, coeff := range c.gen.Row(i) {
			if coeff == 0 {
				continue
			}
			addMul(coeff, shards[j], dst)
		}
		shards[i] = dst
	}
	return nil
}

// Verify checks that the parity shards are consistent with the data
// shards. All shards must be present.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	size, err := c.checkShards(shards, false)
	if err != nil {
		return false, err
	}
	buf := make([]byte, size)
	for r := c.k; r < c.N(); r++ {
		clearSlice(buf)
		for j, coeff := range c.gen.Row(r) {
			if coeff == 0 {
				continue
			}
			addMul(coeff, shards[j], buf)
		}
		if !equalBytes(buf, shards[r]) {
			return false, nil
		}
	}
	return true, nil
}

// Split partitions data into K equal-size data shards (padding the
// last with zeros) followed by M nil parity slots, ready for Encode.
// The shard size is ceil(len(data)/K).
func (c *Code) Split(data []byte) [][]byte {
	if len(data) == 0 {
		data = []byte{0}
	}
	shardSize := (len(data) + c.k - 1) / c.k
	shards := make([][]byte, c.N())
	for i := 0; i < c.k; i++ {
		shards[i] = make([]byte, shardSize)
		start := i * shardSize
		if start < len(data) {
			copy(shards[i], data[start:])
		}
	}
	return shards
}

// Join concatenates the K data shards and truncates to size bytes —
// the inverse of Split followed by Encode/Reconstruct.
func (c *Code) Join(shards [][]byte, size int) ([]byte, error) {
	if len(shards) < c.k {
		return nil, ErrShardCount
	}
	out := make([]byte, 0, size)
	for i := 0; i < c.k && len(out) < size; i++ {
		if shards[i] == nil {
			return nil, ErrTooFew
		}
		need := size - len(out)
		if need > len(shards[i]) {
			need = len(shards[i])
		}
		out = append(out, shards[i][:need]...)
	}
	if len(out) != size {
		return nil, fmt.Errorf("rs: shards too small for requested size %d", size)
	}
	return out, nil
}

func clearSlice(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
