// Command ltbench benchmarks the erasure-coding layer: the improved LT
// codes and the Reed-Solomon baseline. It regenerates the coding
// results of the paper (Table 5-1, Figs 4-1, 5-1, 5-2, 5-3) and offers
// a raw mode for one-off throughput measurements.
//
// Usage:
//
//	ltbench -exp table5-1|fig4-1|fig5-1|fig5-2|fig5-3 [-trials N]
//	ltbench -raw -k 1024 -n 3072 -c 1 -delta 0.1 -block 16384
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/ltcode"
	"repro/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "", "coding experiment id: table5-1, fig4-1, fig5-1, fig5-2, fig5-3, ext-codes")
		trials  = flag.Int("trials", 0, "trials per point")
		seed    = flag.Int64("seed", 1, "RNG seed")
		raw     = flag.Bool("raw", false, "raw LT throughput measurement mode")
		k       = flag.Int("k", 1024, "raw: original blocks")
		n       = flag.Int("n", 3072, "raw: coded blocks")
		c       = flag.Float64("c", 1.0, "raw: soliton parameter C")
		delta   = flag.Float64("delta", 0.1, "raw: soliton parameter δ")
		block   = flag.Int("block", 16<<10, "raw: block size in bytes")
		metrics = flag.String("metrics", "", "write an observability JSON dump to this file (\"-\" for stdout)")
	)
	flag.Parse()

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
	}
	dump := func() {
		if *metrics == "" {
			return
		}
		if err := writeMetricsDump(*metrics, reg); err != nil {
			fmt.Fprintf(os.Stderr, "ltbench: %v\n", err)
			os.Exit(1)
		}
	}

	if *raw {
		if err := rawBench(*k, *n, *c, *delta, *block, *seed, reg); err != nil {
			fmt.Fprintf(os.Stderr, "ltbench: %v\n", err)
			os.Exit(1)
		}
		dump()
		return
	}
	switch *exp {
	case "table5-1", "fig4-1", "fig5-1", "fig5-2", "fig5-3", "ext-codes":
	case "":
		fmt.Fprintln(os.Stderr, "ltbench: -exp or -raw required")
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "ltbench: %q is not a coding experiment\n", *exp)
		os.Exit(2)
	}
	opts := experiments.DefaultOptions()
	if *trials > 0 {
		opts.Trials = *trials
	}
	opts.Seed = *seed
	start := time.Now()
	datasets, err := experiments.Run(*exp, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ltbench: %v\n", err)
		os.Exit(1)
	}
	reg.Gauge("ltbench_" + *exp + "_seconds").Set(time.Since(start).Seconds())
	for i := range datasets {
		datasets[i].Format(os.Stdout)
	}
	dump()
}

// writeMetricsDump writes the registry's JSON snapshot to path ("-"
// for stdout).
func writeMetricsDump(path string, reg *obs.Registry) error {
	if path == "-" {
		return reg.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func rawBench(k, n int, c, delta float64, block int, seed int64, reg *obs.Registry) error {
	p := ltcode.Params{K: k, C: c, Delta: delta}
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	g, err := ltcode.BuildGraph(p, n, rng, ltcode.DefaultGraphOptions())
	if err != nil {
		return err
	}
	buildTime := time.Since(t0)
	orig := make([][]byte, k)
	for i := range orig {
		orig[i] = make([]byte, block)
		rng.Read(orig[i])
	}
	t0 = time.Now()
	coded, err := g.Encode(orig)
	if err != nil {
		return err
	}
	encTime := time.Since(t0)
	// Decode the same arrival order twice: by peeling alone (the
	// paper's decoder, whose figures the gauges report) and with Solve
	// after every block, which finishes a stalled peel by inactivation
	// at the first prefix of full rank. Untimed passes of both come
	// first: a single timed pass is noisy, the first one most of all.
	order := rng.Perm(n)
	for _, solve := range []bool{false, true} {
		if _, _, err := rawDecode(g, order, coded, solve); err != nil {
			return err
		}
	}
	dec, decTime, err := rawDecode(g, order, coded, false)
	if err != nil {
		return err
	}
	ml, mlTime, err := rawDecode(g, order, coded, true)
	if err != nil {
		return err
	}
	data := float64(k * block)
	encMBps := data / encTime.Seconds() / 1e6 * float64(n) / float64(k)
	decMBps := data / decTime.Seconds() / 1e6
	reg.Gauge("ltbench_graph_build_seconds").Set(buildTime.Seconds())
	reg.Gauge("ltbench_encode_mbps").Set(encMBps)
	reg.Gauge("ltbench_decode_mbps").Set(decMBps)
	reg.Gauge("ltbench_reception_overhead").Set(dec.ReceptionOverhead())
	reg.Counter("ltbench_xor_ops_total").Add(int64(dec.XorOps()))
	fmt.Printf("K=%d N=%d C=%g δ=%g block=%dB\n", k, n, c, delta, block)
	fmt.Printf("graph build:   %v (avg coded degree %.2f)\n", buildTime.Round(time.Microsecond), g.AvgCodedDegree())
	fmt.Printf("encode:        %.1f MBps (%v)\n", encMBps, encTime.Round(time.Microsecond))
	for _, r := range []struct {
		name string
		dec  *ltcode.Decoder
		took time.Duration
	}{{"peeling", dec, decTime}, {"peeling+inactivation", ml, mlTime}} {
		fmt.Printf("%s:\n", r.name)
		fmt.Printf("  decode:        %.1f MBps (%v)\n", data/r.took.Seconds()/1e6, r.took.Round(time.Microsecond))
		fmt.Printf("  reception ovh: %.3f (complete after %d of K=%d)\n", r.dec.ReceptionOverhead(), r.dec.Received(), k)
		fmt.Printf("  xor ops:       %d (lazy; %d blocks used, %d inactivated)\n", r.dec.XorOps(), r.dec.UsedBlocks(), r.dec.Inactivated())
	}
	return nil
}

// rawDecode feeds coded blocks in order to a fresh data decoder until
// it completes, calling Solve after each block when solve is set.
func rawDecode(g *ltcode.Graph, order []int, coded [][]byte, solve bool) (*ltcode.Decoder, time.Duration, error) {
	t0 := time.Now()
	dec := ltcode.NewDecoder(g)
	for _, idx := range order {
		if _, err := dec.AddData(idx, coded[idx]); err != nil {
			return nil, 0, err
		}
		if solve && !dec.Complete() {
			dec.Solve()
		}
		if dec.Complete() {
			return dec, time.Since(t0), nil
		}
	}
	return nil, 0, fmt.Errorf("decode incomplete after all %d blocks", len(order))
}
