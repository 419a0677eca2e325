package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ltcode"
)

// ltcodeFigures are the coding-kernel measurements of the traced run,
// made on the workload's own shape: K originals of blockBytes, a commit
// target of N and a graph of N plus the client's default slack of 4
// coded blocks per server.
type ltcodeFigures struct {
	graphBuildMs float64 // median ltcode.BuildGraph time
	encodeMBps   float64 // user bytes encoded into N coded blocks per second
	decodeMBps   float64 // user bytes recovered by Decoder.AddData per second
	xorPerBlock  float64 // Decoder.XorOps / K at the seeded arrival order
	reception    float64 // Received / K − 1 at the same order
}

// ltcodeReps is how many times each kernel is timed; the median wins.
const ltcodeReps = 5

// measureLTCode times the kernels. The two counts depend only on the
// seed and repeat exactly across runs.
func measureLTCode(sp spec, seed int64) (ltcodeFigures, error) {
	k, n := sp.kOf(), sp.nOf()
	graphN := n + 4*numServers
	params := ltcode.Params{K: k, C: 1.0, Delta: 0.1}
	rng := rand.New(rand.NewSource(seed ^ 0x17c0de))

	var builds []float64
	var g *ltcode.Graph
	for i := 0; i < ltcodeReps; i++ {
		start := time.Now()
		gi, err := ltcode.BuildGraph(params, graphN, rand.New(rand.NewSource(rng.Int63())), ltcode.DefaultGraphOptions())
		if err != nil {
			return ltcodeFigures{}, err
		}
		builds = append(builds, ms(time.Since(start)))
		if g == nil {
			g = gi
		}
	}

	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, sp.blockBytes)
		rng.Read(data[i])
	}
	coded := make([][]byte, n)
	for i := range coded {
		coded[i] = make([]byte, sp.blockBytes)
	}
	userMB := float64(int64(k)*sp.blockBytes) / 1e6
	var enc []float64
	for r := 0; r < ltcodeReps; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			g.EncodeBlockInto(coded[i], i, data)
		}
		enc = append(enc, userMB/time.Since(start).Seconds())
	}

	// Arrival order: a seeded permutation of the committed blocks, the
	// order a read would see them in if servers answered at random.
	order := rng.Perm(n)
	var dec []float64
	var figs ltcodeFigures
	for r := 0; r < ltcodeReps; r++ {
		d := ltcode.NewDecoder(g)
		start := time.Now()
		for _, idx := range order {
			if _, err := d.AddData(idx, coded[idx]); err != nil {
				return ltcodeFigures{}, err
			}
			if d.Complete() {
				break
			}
		}
		dec = append(dec, userMB/time.Since(start).Seconds())
		figs.xorPerBlock = float64(d.XorOps()) / float64(k)
		figs.reception = float64(d.Received())/float64(k) - 1
	}
	figs.graphBuildMs = median(builds)
	figs.encodeMBps = median(enc)
	figs.decodeMBps = median(dec)
	return figs, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for none); xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
