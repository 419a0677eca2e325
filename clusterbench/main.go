// Command clusterbench is the repository's benchmark: it runs one
// workload against a real RobuSTore cluster on loopback TCP inside one
// process — 8 transport block servers, a networked metadata service and
// one robust client — checks every byte read, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics and the
// tracing overhead) as one JSON object on the last line of standard
// output. README.md documents the workloads and every metric.
//
// Usage, from the repository root:
//
//	bash clusterbench/run.sh --workload hetero-read --seed 1 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a run sets the cluster up; setup_s is
// the median, and the last cluster is the one measured.
const setupRuns = 3

// watchdog ends a run that has not finished in time, well inside the
// three minutes a run may take.
const watchdog = 170 * time.Second

func main() { os.Exit(run()) }

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: hetero-read, uniform-mixed or small-objects")
		seed     = flag.Int64("seed", 1, "seed of every input the run generates")
		seconds  = flag.Int("seconds", 12, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced window instead of end-to-end ones")
		out      = flag.String("out", ".bench_build", "directory for span dumps")
		blockKiB = flag.Int64("block-kib", 0, "override the workload's block size, in KiB")
		objKiB   = flag.Int64("object-kib", 0, "override the workload's object size, in KiB")
	)
	flag.Parse()
	sp, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "clusterbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if *blockKiB > 0 {
		sp.blockBytes = *blockKiB << 10
	}
	if *objKiB > 0 {
		sp.objBytes = *objKiB << 10
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "clusterbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})

	ctx := context.Background()
	pool := newContentPool(*seed)
	t := newTracer()
	var (
		setupSecs []float64
		preloads  []record
		deletes   []record // a read-only workload's deletes, after each cluster's use
		r         *runner
	)
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		ri, recs, err := setup(ctx, sp, *seed, t, pool)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clusterbench: set-up: %v\n", err)
			return 1
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		preloads = append(preloads, recs...)
		if i < setupRuns-1 {
			if sp.deleteAll {
				deletes = append(deletes, ri.deleteAll(ctx)...)
			}
			if err := ri.cl.close(); err != nil {
				fmt.Fprintf(os.Stderr, "clusterbench: cluster: %v\n", err)
				return 1
			}
			runtime.GC()
			continue
		}
		r = ri
	}

	window := time.Duration(*seconds) * time.Second
	var phases []phase
	var spans []span
	if *trace == 0 {
		phases = append(phases, r.measure(ctx, window))
	} else {
		// Untraced then traced halves on the same cluster: their
		// difference is the tracing overhead.
		phases = append(phases, r.measure(ctx, window/2))
		t.on.Store(true)
		phases = append(phases, r.measure(ctx, window/2))
		t.on.Store(false)
		spans = t.take()
	}
	live := int64(len(r.gen.live)) * sp.objBytes
	stored := float64(r.cl.storedBytes()) / float64(live)
	// Correctness: every op of the measured windows and every delete
	// succeeded, reads with the right content, and every name the
	// measured cluster deleted reads back as not-found.
	var measured []record
	for _, ph := range phases {
		measured = append(measured, ph.recs...)
	}
	var failures []string
	for _, rec := range append(measured, deletes...) {
		if rec.err != nil {
			failures = append(failures, fmt.Sprintf("%s %s: %v", rec.kind, rec.name, rec.err))
		}
	}
	attempted := len(measured) + len(deletes)
	if sp.deleteAll {
		final := r.deleteAll(ctx)
		for _, rec := range final {
			if rec.err != nil {
				failures = append(failures, fmt.Sprintf("%s %s: %v", rec.kind, rec.name, rec.err))
			}
		}
		attempted += len(final)
		measured = append(measured, final...)
		deletes = append(deletes, final...)
	}
	nChecked, notFound := r.checkDeleted(ctx, measured)
	failures = append(failures, notFound...)
	attempted += nChecked
	if err := r.cl.close(); err != nil {
		failures = append(failures, fmt.Sprintf("cluster: %v", err))
	}

	var metrics []metric
	if *trace == 0 {
		w := figures(phases[0], preloads, deletes)
		metrics = endToEnd(w, median(setupSecs), stored, maxRSSMB())
		printWindow(w)
	} else {
		base := figures(phases[0], preloads, deletes)
		traced := figures(phases[1], preloads, deletes)
		lt, err := measureLTCode(sp, *seed)
		if err != nil {
			failures = append(failures, fmt.Sprintf("ltcode: %v", err))
		}
		metrics = perLayer(phases[1], spans, lt, base, traced)
		path := filepath.Join(*out, "trace", fmt.Sprintf("%s-seed%d.jsonl", sp.name, *seed))
		if err := dump(path, spans); err != nil {
			fmt.Fprintf(os.Stderr, "clusterbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "spans: %d written to %s\n", len(spans), path)
		}
	}
	fmt.Fprintf(os.Stderr, "failed_frac  %.6f  (%d of %d checked ops)\n", float64(len(failures))/float64(attempted), len(failures), attempted)
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "  ... %d more\n", len(failures)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "  FAILED %s\n", f)
	}
	for _, m := range metrics {
		fmt.Fprintf(os.Stderr, "%-44s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if err := printResult(len(failures) == 0, attempted, len(failures), metrics); err != nil {
		fmt.Fprintf(os.Stderr, "clusterbench: %v\n", err)
		return 1
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json's order.
func endToEnd(w window, setupS, stored, rssMB float64) []metric {
	return []metric{
		{"setup_s", setupS, "s"},
		{"read_p50_ms", w.readP50, "ms"},
		{"write_p50_ms", w.writeP50, "ms"},
		{"goodput_MBps", w.goodput, "MB/s"},
		{"io_overhead", w.ioOverhead, "ratio"},
		{"wire_bytes_per_user_byte", w.wirePerUser, "ratio"},
		{"stored_bytes_per_user_byte", stored, "ratio"},
		{"cpu_s_per_GB", w.cpuPerGB, "s/GB"},
		{"max_rss_MB", rssMB, "MB"},
	}
}

func printWindow(w window) {
	fmt.Fprintf(os.Stderr, "samples: %d reads, %d writes, %d deletes\n", w.reads, w.writes, w.deletes)
}

// printResult writes the one-line JSON result the benchmark ends with.
func printResult(correct bool, attempted, failed int, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, make(map[string]value, len(metrics))}
	for _, m := range metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
