package ltcode

import (
	"fmt"
	"math/rand"
)

// Graph is a bipartite LT coding graph connecting K original blocks to
// N coded blocks. Neighbors[i] lists the original-block indices XORed
// into coded block i. A Graph is immutable after construction and safe
// for concurrent use.
type Graph struct {
	K, N      int
	Neighbors [][]int32
}

// GraphOptions control the storage-oriented improvements of §5.2.3.
type GraphOptions struct {
	// UniformCoverage selects neighbors from a stream of random
	// permutations of the original blocks so that every original
	// block's degree differs by at most ~1 (improvement 2).
	UniformCoverage bool
	// EnsureDecodable regenerates the graph until the full set of N
	// coded blocks peels to all K originals (improvement 1). Requires
	// N >= K.
	EnsureDecodable bool
	// MaxAttempts bounds the regeneration loop (default 64).
	MaxAttempts int
}

// DefaultGraphOptions are the improved-LT settings used by RobuSTore.
func DefaultGraphOptions() GraphOptions {
	return GraphOptions{UniformCoverage: true, EnsureDecodable: true, MaxAttempts: 64}
}

// BuildGraph generates a coding graph with N coded blocks using the
// given parameters and RNG. With EnsureDecodable it retries until the
// graph is fully decodable and returns an error if MaxAttempts graphs
// all fail (practically impossible for N >= ~1.2K with sane C, δ).
func BuildGraph(p Params, n int, rng *rand.Rand, opts GraphOptions) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("ltcode: N must be >= 1, got %d", n)
	}
	if opts.EnsureDecodable && n < p.K {
		return nil, fmt.Errorf("ltcode: decodability requires N >= K (N=%d, K=%d)", n, p.K)
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 64
	}
	sampler := NewDegreeSampler(RobustSoliton(p))
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g := generate(p.K, n, sampler, rng, opts.UniformCoverage)
		if !opts.EnsureDecodable || g.FullyDecodable() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("ltcode: no decodable graph in %d attempts (K=%d, N=%d, C=%v, δ=%v)",
		maxAttempts, p.K, n, p.C, p.Delta)
}

// generate builds one candidate graph. All neighbor lists are carved
// from one shared arena instead of one allocation per coded block; the
// arena may relocate while growing, so lists are recorded as offsets
// and sliced out only at the end. The RNG call sequence is identical to
// the per-block version — the graph is rebuilt from a stored seed, so
// the draw order is part of the storage format.
func generate(k, n int, sampler *DegreeSampler, rng *rand.Rand, uniform bool) *Graph {
	g := &Graph{K: k, N: n, Neighbors: make([][]int32, n)}
	var stream *permStream
	if uniform {
		stream = newPermStream(k, rng)
	}
	seen := make([]int32, k) // epoch marker per original block
	offs := make([]int, n+1)
	arena := make([]int32, 0, k+n) // ~avg degree slightly above 1 edge/block
	for i := 0; i < n; i++ {
		d := sampler.Sample(rng)
		if d > k {
			d = k
		}
		epoch := int32(i + 1)
		for cnt := 0; cnt < d; {
			var cand int32
			if uniform {
				cand = stream.next()
			} else {
				cand = int32(rng.Intn(k))
			}
			if seen[cand] == epoch {
				continue // duplicate within this coded block; draw again
			}
			seen[cand] = epoch
			arena = append(arena, cand)
			cnt++
		}
		offs[i+1] = len(arena)
	}
	for i := 0; i < n; i++ {
		g.Neighbors[i] = arena[offs[i]:offs[i+1]:offs[i+1]]
	}
	return g
}

// permStream yields original-block indices from successive random
// permutations, implementing the pseudo-random selection technique of
// §5.2.3 that equalizes original-block degrees.
type permStream struct {
	k    int
	rng  *rand.Rand
	perm []int32
	pos  int
}

func newPermStream(k int, rng *rand.Rand) *permStream {
	s := &permStream{k: k, rng: rng, perm: make([]int32, k), pos: k}
	return s
}

func (s *permStream) next() int32 {
	if s.pos >= s.k {
		for i := range s.perm {
			s.perm[i] = int32(i)
		}
		s.rng.Shuffle(s.k, func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		s.pos = 0
	}
	v := s.perm[s.pos]
	s.pos++
	return v
}

// FullyDecodable reports whether peeling over all N coded blocks
// recovers every original block.
func (g *Graph) FullyDecodable() bool {
	d := NewSymbolicDecoder(g)
	for i := 0; i < g.N; i++ {
		if d.Add(i) && d.Complete() {
			return true
		}
	}
	return d.Complete()
}

// Degree returns the degree of coded block i.
func (g *Graph) Degree(i int) int { return len(g.Neighbors[i]) }

// AvgCodedDegree returns the mean coded-block degree of the graph.
func (g *Graph) AvgCodedDegree() float64 {
	var sum int
	for _, nb := range g.Neighbors {
		sum += len(nb)
	}
	return float64(sum) / float64(g.N)
}

// OriginalDegrees returns the degree of each original block (how many
// coded blocks reference it) — used to verify uniform coverage and to
// bound update cost (§4.3.4).
func (g *Graph) OriginalDegrees() []int {
	deg := make([]int, g.K)
	for _, nb := range g.Neighbors {
		for _, j := range nb {
			deg[j]++
		}
	}
	return deg
}

// Edges returns the total number of edges in the graph.
func (g *Graph) Edges() int {
	var sum int
	for _, nb := range g.Neighbors {
		sum += len(nb)
	}
	return sum
}

// AffectedCoded returns the indices of coded blocks that reference the
// given original block — the set that must be re-generated when that
// original block is updated (§4.3.4).
func (g *Graph) AffectedCoded(orig int) []int {
	var out []int
	for i, nb := range g.Neighbors {
		for _, j := range nb {
			if int(j) == orig {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// EncodeBlock computes coded block i from the original data blocks.
// All data blocks must be the same length.
func (g *Graph) EncodeBlock(i int, data [][]byte) []byte {
	return g.EncodeBlockInto(make([]byte, len(data[g.Neighbors[i][0]])), i, data)
}

// EncodeBlockInto computes coded block i into dst, which must be
// exactly one block long, and returns it. It allocates nothing — the
// write hot path encodes into pooled buffers (DESIGN.md §10). The
// first two neighbours are XORed straight into dst, so a share of
// degree d costs d-1 passes over its bytes; degree 1 is a copy.
func (g *Graph) EncodeBlockInto(dst []byte, i int, data [][]byte) []byte {
	nb := g.Neighbors[i]
	if len(nb) == 1 {
		copy(dst, data[nb[0]])
		return dst
	}
	xorPair(dst, data[nb[0]], data[nb[1]])
	for _, j := range nb[2:] {
		xorWords(data[j], dst)
	}
	return dst
}

// Encode computes all N coded blocks.
func (g *Graph) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != g.K {
		return nil, fmt.Errorf("ltcode: Encode got %d blocks, graph has K=%d", len(data), g.K)
	}
	size := len(data[0])
	for _, b := range data {
		if len(b) != size {
			return nil, fmt.Errorf("ltcode: unequal block sizes")
		}
	}
	out := make([][]byte, g.N)
	for i := 0; i < g.N; i++ {
		out[i] = g.EncodeBlock(i, data)
	}
	return out, nil
}
