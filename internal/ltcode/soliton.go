// Package ltcode implements Luby Transform (LT) rateless erasure codes
// with the storage-oriented improvements described in the RobuSTore
// paper (§5.2.3): guaranteed decodability via coding-graph checking,
// uniform coverage of original blocks via pseudo-random permutation
// selection, lazy-XOR peeling decoding, and word-wide XOR kernels.
//
// An LT code over K original blocks generates a practically unlimited
// stream of coded blocks; each coded block is the XOR of d original
// blocks, where d is drawn from the robust soliton distribution with
// parameters C and δ. Any ~(1+ε)K coded blocks reconstruct the data
// with high probability; the improved codes here additionally guarantee
// that the *full* set of N generated blocks always decodes.
package ltcode

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Params selects an LT code: K original blocks and the robust soliton
// shape parameters C (> 0) and Delta (0 < δ <= 1). Paper guidance
// (§5.2.4): C=1, δ=0.1 gives ~0.5 reception overhead at K=1024; larger
// C / smaller δ trades communication overhead for less CPU.
type Params struct {
	K     int
	C     float64
	Delta float64
	// MinSpike, when positive, caps R at K/MinSpike so the robust
	// part's spike sits at degree MinSpike or above. At small K Luby's
	// R exceeds K (C=1, δ=0.1: every K below ~40), the spike collapses
	// onto degree 1 and ~90 % of coded blocks become plain copies: the
	// code degrades to replication, and losing half the blocks leaves
	// some original uncovered more often than not. The floor never
	// exceeds K/4, and below 2 the cap is off: for K < 8 copies are the
	// sturdier code. Zero keeps Luby's construction, which stored
	// graphs written without the cap need.
	MinSpike int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("ltcode: K must be >= 1, got %d", p.K)
	}
	if !(p.C > 0) {
		return fmt.Errorf("ltcode: C must be > 0, got %v", p.C)
	}
	if !(p.Delta > 0 && p.Delta <= 1) {
		return fmt.Errorf("ltcode: Delta must be in (0,1], got %v", p.Delta)
	}
	if p.MinSpike < 0 {
		return fmt.Errorf("ltcode: MinSpike must be >= 0, got %d", p.MinSpike)
	}
	return nil
}

// RobustSoliton returns the robust soliton probability mass function
// μ(1..K) as a slice indexed 0..K-1 (entry i is the probability of
// degree i+1), following Luby's construction:
//
//	R = C·ln(K/δ)·√K, capped at K/min(MinSpike, K/4) when that is >= 2
//	ρ(1) = 1/K, ρ(i) = 1/(i(i-1)) for i = 2..K
//	τ(i) = R/(iK) for i = 1..⌈K/R⌉-1, τ(⌈K/R⌉) = R·ln(R/δ)/K, else 0
//	μ(i) = (ρ(i)+τ(i))/β with β = Σ(ρ+τ)
func RobustSoliton(p Params) []float64 {
	k := p.K
	pmf := make([]float64, k)
	if k == 1 {
		pmf[0] = 1
		return pmf
	}
	// Ideal soliton ρ.
	pmf[0] = 1 / float64(k)
	for i := 2; i <= k; i++ {
		pmf[i-1] = 1 / (float64(i) * float64(i-1))
	}
	// Robust part τ.
	r := p.C * math.Log(float64(k)/p.Delta) * math.Sqrt(float64(k))
	if floor := min(p.MinSpike, k/4); floor >= 2 && r > float64(k)/float64(floor) {
		r = float64(k) / float64(floor)
	}
	if r > 0 {
		spike := int(math.Ceil(float64(k) / r))
		if spike < 1 {
			spike = 1
		}
		if spike > k {
			spike = k
		}
		for i := 1; i < spike; i++ {
			pmf[i-1] += r / (float64(i) * float64(k))
		}
		lr := math.Log(r / p.Delta)
		if lr > 0 {
			pmf[spike-1] += r * lr / float64(k)
		}
	}
	// Normalize by β.
	var beta float64
	for _, v := range pmf {
		beta += v
	}
	for i := range pmf {
		pmf[i] /= beta
	}
	return pmf
}

// IdealSoliton returns the ideal soliton distribution (robust part
// omitted), used in tests and analysis.
func IdealSoliton(k int) []float64 {
	pmf := make([]float64, k)
	if k == 1 {
		pmf[0] = 1
		return pmf
	}
	pmf[0] = 1 / float64(k)
	for i := 2; i <= k; i++ {
		pmf[i-1] = 1 / (float64(i) * float64(i-1))
	}
	return pmf
}

// MeanDegree returns the expected degree Σ i·μ(i) of a pmf.
func MeanDegree(pmf []float64) float64 {
	var m float64
	for i, v := range pmf {
		m += float64(i+1) * v
	}
	return m
}

// DegreeSampler draws degrees from a pmf by inverse-CDF binary search.
type DegreeSampler struct {
	cdf []float64
}

// NewDegreeSampler builds a sampler for the given pmf over 1..len(pmf).
func NewDegreeSampler(pmf []float64) *DegreeSampler {
	cdf := make([]float64, len(pmf))
	var acc float64
	for i, v := range pmf {
		acc += v
		cdf[i] = acc
	}
	// Guard against floating point shortfall at the top.
	cdf[len(cdf)-1] = 1
	return &DegreeSampler{cdf: cdf}
}

// Sample draws one degree in [1, K].
func (s *DegreeSampler) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(s.cdf, u) + 1
}
