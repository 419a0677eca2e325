package ltcode

import "math/bits"

// Inactivation decoding. Peeling stalls when every received coded block
// still has two or more unresolved neighbours, although the blocks held
// may already determine the data: at storage-sized K the GF(2) rank of
// the received rows reaches K well before peeling completes. Solve
// finishes such a decode the way RaptorQ-class decoders do. It keeps
// peeling over the residual system, and whenever the ripple empties it
// *inactivates* one unresolved original — sets it aside as an unknown —
// which drops that original from every residual row and so restarts
// the ripple. Each peeled original is then known up to a sum of
// inactive ones, and the residual rows that peeled nothing become
// equations over the inactive set alone. A bit-packed GF(2) elimination
// on that small system decides solvability before any payload moves;
// only a solvable system is then applied to blocks: the peel-order
// XORs, the inactive originals, and a back-substitution of those into
// the peeled originals that depend on them.

// Original states during Solve (undecoded originals only).
const (
	stActive   int32 = iota // unresolved, still peelable
	stPeeled                // resolved by a pivot row, up to inactive terms
	stInactive              // set aside; solved by elimination
)

// solver is Solve's working state. It lives on the Decoder and is
// reused by every call, so a caller that tries Solve after each share
// allocates it once: per-coded-block and per-original arrays are carved
// from one int32 arena, the bitsets from one word buffer that grows by
// doubling.
type solver struct {
	deg    []int32 // per coded block: residual neighbours neither peeled nor inactive
	used   []int32 // per coded block: 1 if the row resolved an original
	state  []int32 // per original: stActive, stPeeled or stInactive
	pivot  []int32 // per peeled original: the row that resolved it
	col    []int32 // per peeled original: its order position; per inactive: its column
	count  []int32 // per original: tally for choosing the next inactivation
	rows   []int32 // residual rows: received, with an undecoded neighbour
	ripple []int32
	order  []int32 // peeled originals, in peel order
	inact  []int32 // inactive originals, by column
	checks []int32 // residual rows that resolved nothing
	piv    []int32 // per inactive column: the check row (index into checks) that pins it

	words []uint64 // backs vec, a and e
	vec   []uint64 // per peeled original (by order position): its inactive terms, w words
	a     []uint64 // per check row: its coefficients over the inactive columns, w words
	e     []uint64 // per check row: the check rows it is now the sum of, mw words
	w, mw int      // words per inactive-column and per check-row bitset
	b     [][]byte // per inactive column: its pinning row's right-hand side
}

func (s *solver) init(k, n int) {
	arena := make([]int32, 5*n+7*k)
	take := func(l int) []int32 {
		t := arena[:l:l]
		arena = arena[l:]
		return t
	}
	*s = solver{
		deg: take(n), used: take(n), rows: take(n)[:0], ripple: take(n)[:0], checks: take(n)[:0],
		state: take(k), pivot: take(k), col: take(k), count: take(k),
		order: take(k)[:0], inact: take(k)[:0], piv: take(k)[:0],
		b: make([][]byte, k),
	}
}

// growWords returns s resliced to n zeroed words, reallocating (to at
// least twice its capacity) only when it is too small.
func growWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n, max(n, 2*cap(s)))
	}
	s = s[:n]
	clear(s)
	return s
}

func xorBits(dst, src []uint64) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Solve finishes a stalled decode by inactivation and reports whether
// the decoder is now Complete. It completes exactly when the received
// blocks have GF(2) rank K over the originals, so a caller that calls it
// after each block completes at the shortest received prefix of full
// rank. It returns false at once while fewer blocks beyond those
// peeling used are held than originals remain, and moves no payload
// unless the solve succeeds; a failed call changes nothing but its
// record of the rank shortfall. Each block raises the rank by at most
// one, so after a failure Solve returns false without work until as
// many more blocks have arrived as the rank was short. Received
// payloads are never mutated. Inactivated reports how many originals
// the successful call set aside.
func (d *Decoder) Solve() bool {
	if d.decodedCount == d.g.K {
		return true
	}
	if d.nReceived < d.solveAt {
		return false
	}
	// Every block peeling used decoded one original and a block whose
	// neighbours are all decoded adds no rank, so the rank is short by
	// at least the unresolved originals the other blocks cannot cover.
	if short := d.g.K - d.decodedCount - (d.nReceived - d.usedBlocks); short > 0 {
		d.solveAt = d.nReceived + short
		return false
	}
	s := &d.sv
	if s.deg == nil {
		s.init(d.g.K, d.g.N)
	}
	s.rows = s.rows[:0]
	for i, r := range d.remaining {
		if r > 0 {
			s.rows = append(s.rows, int32(i))
		}
	}
	d.peelInactivating()
	if short := d.eliminate(); short > 0 {
		d.solveAt = d.nReceived + short
		return false
	}
	d.applySolve()
	return true
}

// peelInactivating runs peeling over the residual rows, inactivating an
// original whenever the ripple empties, until every undecoded original
// is peeled or inactive. It touches only solver state.
func (d *Decoder) peelInactivating() {
	s := &d.sv
	for j, dec := range d.decoded {
		if !dec {
			s.state[j] = stActive
		}
	}
	for _, r := range s.rows {
		s.deg[r] = d.remaining[r]
		s.used[r] = 0
	}
	s.ripple, s.order, s.inact = s.ripple[:0], s.order[:0], s.inact[:0]
	active := d.g.K - d.decodedCount
	for active > 0 {
		for len(s.ripple) > 0 {
			r := s.ripple[len(s.ripple)-1]
			s.ripple = s.ripple[:len(s.ripple)-1]
			if s.deg[r] != 1 {
				continue // a neighbour was peeled or inactivated since
			}
			for _, j := range d.g.Neighbors[r] {
				if !d.decoded[j] && s.state[j] == stActive {
					s.used[r] = 1
					s.pivot[j] = r
					s.state[j] = stPeeled
					s.col[j] = int32(len(s.order))
					s.order = append(s.order, j)
					active--
					d.release(j)
					break
				}
			}
		}
		if active == 0 {
			break
		}
		j := d.nextInactive()
		s.state[j] = stInactive
		s.col[j] = int32(len(s.inact))
		s.inact = append(s.inact, j)
		active--
		d.release(j)
	}
}

// release drops resolved-or-inactive original j from its residual rows.
func (d *Decoder) release(j int32) {
	s := &d.sv
	for _, r := range d.waiters[j] {
		if s.deg[r]--; s.deg[r] == 1 {
			s.ripple = append(s.ripple, r)
		}
	}
}

// nextInactive picks the original to inactivate: among the residual
// rows of least degree (at least 2), the active original they share
// most often, ties to the lowest index. Inactivating it turns every one
// of those rows that holds it one step closer to the ripple — at degree
// 2, straight into it. When no row holds an active original, the
// lowest-index active one: it is in no row, and elimination finds its
// column empty.
func (d *Decoder) nextInactive() int32 {
	s := &d.sv
	minDeg := int32(-1)
	for _, r := range s.rows {
		if dg := s.deg[r]; dg >= 2 && (minDeg < 0 || dg < minDeg) {
			minDeg = dg
		}
	}
	best := int32(-1)
	if minDeg < 0 {
		for j, st := range s.state {
			if !d.decoded[j] && st == stActive {
				return int32(j)
			}
		}
	}
	clear(s.count)
	for _, r := range s.rows {
		if s.deg[r] != minDeg {
			continue
		}
		for _, j := range d.g.Neighbors[r] {
			if d.decoded[j] || s.state[j] != stActive {
				continue
			}
			s.count[j]++
			if best < 0 || s.count[j] > s.count[best] || (s.count[j] == s.count[best] && j < best) {
				best = j
			}
		}
	}
	return best
}

// terms sets v to the inactive terms of row r's undecoded neighbours
// other than skip: each peeled neighbour contributes its own terms,
// each inactive one its column.
func (d *Decoder) terms(v []uint64, r, skip int32) {
	s := &d.sv
	for _, q := range d.g.Neighbors[r] {
		if q == skip || d.decoded[q] {
			continue
		}
		if c := s.col[q]; s.state[q] == stInactive {
			v[c/64] ^= 1 << (c % 64)
		} else {
			xorBits(v, s.vec[int(c)*s.w:int(c+1)*s.w])
		}
	}
}

// eliminate writes every peeled original's inactive terms, turns the
// residual rows that peeled nothing into equations over the inactive
// columns, and reduces them (Gauss-Jordan on bits, tracking which rows
// each row is the sum of). It returns how many inactive columns no row
// pins — by how much the received rows' rank falls short of K; 0 means
// full rank. Still no payload moves.
func (d *Decoder) eliminate() int {
	s := &d.sv
	ni := len(s.inact)
	s.checks = s.checks[:0]
	for _, r := range s.rows {
		if s.used[r] == 0 {
			s.checks = append(s.checks, r)
		}
	}
	m := len(s.checks)
	s.w, s.mw = (ni+63)/64, (m+63)/64
	w, mw := s.w, s.mw
	nv, na := len(s.order)*w, m*w
	s.words = growWords(s.words, nv+na+m*mw)
	s.vec, s.a, s.e = s.words[:nv], s.words[nv:nv+na], s.words[nv+na:]
	for pos, p := range s.order {
		d.terms(s.vec[pos*w:(pos+1)*w], s.pivot[p], p)
	}
	for ci, r := range s.checks {
		d.terms(s.a[ci*w:(ci+1)*w], r, -1)
		s.e[ci*mw+ci/64] |= 1 << (ci % 64)
	}
	s.piv = s.piv[:0]
	short := 0
	for c := 0; c < ni; c++ {
		word, bit := c/64, uint64(1)<<(c%64)
		p := -1
		for ci := 0; ci < m; ci++ {
			if s.a[ci*w+word]&bit != 0 && !d.pinned(ci) {
				p = ci
				break
			}
		}
		if p < 0 {
			short++
			s.piv = append(s.piv, -1)
			continue
		}
		for ci := 0; ci < m; ci++ {
			if ci != p && s.a[ci*w+word]&bit != 0 {
				xorBits(s.a[ci*w:(ci+1)*w], s.a[p*w:(p+1)*w])
				xorBits(s.e[ci*mw:(ci+1)*mw], s.e[p*mw:(p+1)*mw])
			}
		}
		s.piv = append(s.piv, int32(p))
	}
	return short
}

// pinned reports whether check row ci already pins a column.
func (d *Decoder) pinned(ci int) bool { return d.pinnedColumn(ci) >= 0 }

// pinnedColumn returns the column check row ci pins, or -1.
func (d *Decoder) pinnedColumn(ci int) int {
	for c, p := range d.sv.piv {
		if int(p) == ci {
			return c
		}
	}
	return -1
}

func onesCount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// rhs returns a fresh buffer holding row r's payload XORed with every
// decoded or peeled neighbour's block other than skip — the row's
// value with its inactive terms still unapplied — counting the XORs.
func (d *Decoder) rhs(r, skip int32) []byte {
	s := &d.sv
	var sum xorSum
	if !d.symbolic {
		sum = xorSum{out: make([]byte, len(d.coded[r])), first: d.coded[r]}
	}
	for _, q := range d.g.Neighbors[r] {
		if q == skip || (!d.decoded[q] && s.state[q] == stInactive) {
			continue
		}
		if !d.symbolic {
			sum.add(d.data[q])
		}
		d.xorOps++
	}
	return sum.result()
}

// applySolve moves the payloads of a solvable system: each peeled
// original in peel order with its inactive terms taken as zero, the
// pinning rows' right-hand sides, each inactive original as the sum its
// pinning row's combination names, and last the inactive terms
// substituted back into the peeled originals.
func (d *Decoder) applySolve() {
	s := &d.sv
	for _, p := range s.order {
		if b := d.rhs(s.pivot[p], p); !d.symbolic {
			d.data[p] = b
		}
	}
	for c, ci := range s.piv {
		s.b[c] = d.rhs(s.checks[ci], -1)
	}
	// Column c is the sum of the right-hand sides its pinning row's
	// combination names; each of those rows pins a column of its own.
	// A one-row sum is that row's buffer, which nothing writes again.
	for c, ci := range s.piv {
		e := s.e[int(ci)*s.mw : int(ci+1)*s.mw]
		var out []byte
		first := true
		for wi, word := range e {
			for ; word != 0; word &= word - 1 {
				rhs := s.b[d.pinnedColumn(wi*64+bits.TrailingZeros64(word))]
				switch {
				case !first:
					if !d.symbolic {
						xorWords(rhs, out)
					}
					d.xorOps++
				case onesCount(e) == 1:
					out = rhs
				case !d.symbolic:
					out = append([]byte(nil), rhs...)
				}
				first = false
			}
		}
		if !d.symbolic {
			d.data[s.inact[c]] = out
		}
	}
	clear(s.b)
	for pos, p := range s.order {
		for wi, word := range s.vec[pos*s.w : (pos+1)*s.w] {
			for ; word != 0; word &= word - 1 {
				c := wi*64 + bits.TrailingZeros64(word)
				if !d.symbolic {
					xorWords(d.data[s.inact[c]], d.data[p])
				}
				d.xorOps++
			}
		}
	}
	for _, p := range s.order {
		d.markSolved(p, s.pivot[p])
	}
	for c, j := range s.inact {
		d.markSolved(j, s.checks[s.piv[c]])
	}
	d.inactivated = len(s.inact)
}
