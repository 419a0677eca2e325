// benchdiff compares a fresh bench_baseline.sh run against the
// committed BENCH_*.json baseline and exits non-zero on regression.
//
// It replaces the sed-based key diff the CI bench-smoke job used to
// run: besides metric-set drift (missing or unexpected keys), it
// checks values against per-metric tolerances chosen by metric kind —
// latency and throughput within ±25%, allocations per op within ±10%
// (allocation counts are deterministic, so even small growth is a
// real hot-path change). Improvements never fail. Count-style metrics
// with no better/worse direction (per-read counts) are presence-only.
//
// Usage:
//
//	benchdiff -baseline BENCH_7.json -fresh /tmp/fresh.json [flags]
//
// Flags:
//
//	-lat-tol 0.25     tolerance for latency/throughput metrics
//	-alloc-tol 0.10   tolerance for allocs-per-op metrics
//	-scale 1.0        multiplier on both tolerances (CI runners are
//	                  noisier than the reference machine)
//	-keys-only        check metric-set drift only, ignore values
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// baselineFile is the subset of bench_baseline.sh's JSON we compare.
type baselineFile struct {
	Schema  int                `json:"schema"`
	Metrics map[string]float64 `json:"metrics"`
}

// direction of a metric: which way is worse.
type direction int

const (
	presenceOnly direction = iota // no better/worse axis; key must exist
	lowerBetter                   // latency, allocations
	higherBetter                  // throughput, speedup
)

// classify maps a metric key to its direction and which tolerance
// bucket applies (true = the tight allocation tolerance).
func classify(key string) (direction, bool) {
	k := strings.ToLower(key)
	switch {
	case strings.Contains(k, "allocs_per_op"):
		return lowerBetter, true
	case strings.HasSuffix(k, "_ms"):
		return lowerBetter, false
	case strings.Contains(k, "mbps"), strings.Contains(k, "speedup"):
		return higherBetter, false
	default:
		return presenceOnly, false
	}
}

// finding is one comparison failure.
type finding struct {
	key  string
	kind string // "missing", "unexpected", "regression"
	msg  string
}

// compare diffs fresh against base and returns every failure, sorted
// by key. latTol/allocTol are fractional tolerances already scaled.
func compare(base, fresh map[string]float64, latTol, allocTol float64, keysOnly bool) []finding {
	var out []finding
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bv := base[k]
		fv, ok := fresh[k]
		if !ok {
			out = append(out, finding{k, "missing", fmt.Sprintf("%s: present in baseline, absent in fresh run", k)})
			continue
		}
		if keysOnly {
			continue
		}
		dir, tight := classify(k)
		tol := latTol
		if tight {
			tol = allocTol
		}
		switch dir {
		case lowerBetter:
			limit := bv * (1 + tol)
			if fv > limit {
				out = append(out, finding{k, "regression",
					fmt.Sprintf("%s: %.4g worse than baseline %.4g (limit %.4g, +%.0f%% tolerance)", k, fv, bv, limit, tol*100)})
			}
		case higherBetter:
			limit := bv * (1 - tol)
			if fv < limit {
				out = append(out, finding{k, "regression",
					fmt.Sprintf("%s: %.4g worse than baseline %.4g (limit %.4g, -%.0f%% tolerance)", k, fv, bv, limit, tol*100)})
			}
		case presenceOnly:
			// Key exists; nothing more to check.
		}
	}
	extras := make([]string, 0)
	for k := range fresh {
		if _, ok := base[k]; !ok {
			extras = append(extras, k)
		}
	}
	sort.Strings(extras)
	for _, k := range extras {
		out = append(out, finding{k, "unexpected",
			fmt.Sprintf("%s: present in fresh run, absent from baseline — re-run scripts/bench_baseline.sh and commit the new baseline", k)})
	}
	return out
}

func loadBaseline(path string) (baselineFile, error) {
	var bf baselineFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	if bf.Schema != 1 {
		return bf, fmt.Errorf("%s: unsupported baseline schema %d", path, bf.Schema)
	}
	if len(bf.Metrics) == 0 {
		return bf, fmt.Errorf("%s: no metrics", path)
	}
	return bf, nil
}

func main() {
	var (
		basePath = flag.String("baseline", "", "committed baseline JSON (required)")
		fresh    = flag.String("fresh", "", "freshly generated baseline JSON (required)")
		latTol   = flag.Float64("lat-tol", 0.25, "fractional tolerance for latency/throughput metrics")
		allocTol = flag.Float64("alloc-tol", 0.10, "fractional tolerance for allocs-per-op metrics")
		scale    = flag.Float64("scale", 1.0, "tolerance multiplier (loosen on noisy CI runners)")
		keysOnly = flag.Bool("keys-only", false, "check metric-set drift only, ignore values")
	)
	flag.Parse()
	if *basePath == "" || *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -fresh are required")
		flag.Usage()
		os.Exit(2)
	}
	bf, err := loadBaseline(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	ff, err := loadBaseline(*fresh)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	findings := compare(bf.Metrics, ff.Metrics, *latTol**scale, *allocTol**scale, *keysOnly)
	if len(findings) == 0 {
		fmt.Printf("benchdiff: %d metrics within tolerance of %s\n", len(bf.Metrics), *basePath)
		return
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %s\n", f.kind, f.msg)
	}
	os.Exit(1)
}
