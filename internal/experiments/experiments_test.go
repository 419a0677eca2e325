package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rs"
	"repro/internal/schemes"
)

func tiny() Options { return Options{Trials: 3, Seed: 1} }

func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if e.ID == "" || e.Title == "" || e.Run == nil || e.Figures == "" {
			t.Errorf("entry %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if len(Registry) < 15 {
		t.Fatalf("registry has only %d entries", len(Registry))
	}
}

func TestFindAndRun(t *testing.T) {
	if _, ok := Find("headline"); !ok {
		t.Fatal("headline not found")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("bogus id found")
	}
	if _, err := Run("nope", tiny()); err == nil {
		t.Fatal("Run with bogus id succeeded")
	}
	if len(IDs()) != len(Registry) {
		t.Fatal("IDs length mismatch")
	}
}

func TestDatasetFormatAndCSV(t *testing.T) {
	d := Dataset{ID: "x", Title: "T", XLabel: "x", Order: []string{"a", "b"}}
	d.Add(1, map[string]float64{"a": 2, "b": math.NaN()})
	d.Add(2, map[string]float64{"a": 3, "c": 4})
	var sb strings.Builder
	d.Format(&sb)
	out := sb.String()
	for _, want := range []string{"== x: T ==", "a", "b", "c", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	d.WriteCSV(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3", len(lines))
	}
	if lines[0] != "x,a,b,c" {
		t.Fatalf("CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,2,,") {
		t.Fatalf("CSV NaN handling wrong: %q", lines[1])
	}
}

func TestCSVEscape(t *testing.T) {
	if csvEscape("plain") != "plain" {
		t.Fatal("plain string escaped")
	}
	if csvEscape(`a,"b`) != `"a,""b"` {
		t.Fatalf("escape wrong: %q", csvEscape(`a,"b`))
	}
}

func TestSeriesExtraction(t *testing.T) {
	d := Dataset{Order: []string{"a"}}
	d.Add(1, map[string]float64{"a": 5})
	d.Add(2, map[string]float64{})
	s := d.Series("a")
	if s[0] != 5 || !math.IsNaN(s[1]) {
		t.Fatalf("Series = %v", s)
	}
}

func TestCollect(t *testing.T) {
	ps := Collect([]schemes.Result{
		{Bandwidth: 1e6, Latency: 1, IOOverhead: 0.5, Reception: 0.4},
		{Bandwidth: 3e6, Latency: 3, IOOverhead: 0.5, Reception: 0.6, Failed: true},
	})
	if ps.Bandwidth.Mean != 2 {
		t.Fatalf("bandwidth mean %v", ps.Bandwidth.Mean)
	}
	if ps.Latency.Mean != 2 || ps.Failures != 1 {
		t.Fatalf("collect wrong: %+v", ps)
	}
}

// checkDatasets verifies basic structural invariants of an
// experiment's output.
func checkDatasets(t *testing.T, id string, ds []Dataset, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(ds) == 0 {
		t.Fatalf("%s produced no datasets", id)
	}
	for _, d := range ds {
		if d.ID == "" || d.Title == "" {
			t.Errorf("%s: dataset missing id/title", id)
		}
		if len(d.Points) == 0 {
			t.Errorf("%s: dataset %s empty", id, d.ID)
		}
	}
}

func TestTable51Shape(t *testing.T) {
	ds, err := Table51(tiny())
	checkDatasets(t, "table5-1", ds, err)
	// X axis is K = 32, 16, 8, 4: bandwidth must increase as K drops.
	// A timing of one encode per K moves with machine load, so the
	// shape is checked on the work that sets it: the bytes encoding
	// multiply-accumulates per data byte must fall with K.
	work := make([]float64, len(ds[0].Points))
	for i, p := range ds[0].Points {
		code, err := rs.New(int(p.X), int(p.X))
		if err != nil {
			t.Fatal(err)
		}
		work[i] = float64(code.EncodeMulAdds()) / p.X
		if i > 0 && work[i] >= work[i-1] {
			t.Fatalf("RS encode work per data byte not ∝ K (K = 32, 16, 8, 4): %v", work)
		}
	}
	for _, mbps := range ds[0].Series("encode MBps") {
		if mbps <= 0 {
			t.Fatalf("encode bandwidth %v, want positive", mbps)
		}
	}
}

func TestFig41Shape(t *testing.T) {
	ds, err := Fig41(Options{Trials: 10, Seed: 1})
	checkDatasets(t, "fig4-1", ds, err)
	d := ds[0]
	repl := d.Series("replication (exact)")
	lt := d.Series("LT decoder (MC)")
	// The LT curve must dominate replication in the mid-range: find M
	// where LT reaches ~1 and check replication is still low there.
	for i, p := range d.Points {
		if lt[i] >= 0.95 {
			if repl[i] > 0.5 {
				t.Fatalf("at M=%v replication already at %v; LT should win decisively", p.X, repl[i])
			}
			return
		}
	}
	t.Fatal("LT Monte-Carlo curve never reached 0.95")
}

func TestTable61AndFig65(t *testing.T) {
	ds, err := Table61(Options{Trials: 4, Seed: 1})
	checkDatasets(t, "table6-1", ds, err)
	seq := ds[0].Series("PSeq=1")
	rnd := ds[0].Series("PSeq=0")
	for i := range seq {
		if seq[i] <= rnd[i] {
			t.Fatalf("sequential not faster at row %d", i)
		}
	}
	ds, err = Fig65(Options{Trials: 3, Seed: 1})
	checkDatasets(t, "fig6-5", ds, err)
	util := ds[0].Series("bg utilization")
	if util[0] <= util[len(util)-1] {
		t.Fatal("bg utilization should fall with interval")
	}
}

func TestFig66Shape(t *testing.T) {
	ds, err := Fig66(tiny())
	checkDatasets(t, "fig6-6", ds, err)
	bw := ds[0]
	robu := bw.Series("RobuSTore")
	raid := bw.Series("RAID-0")
	last := len(bw.Points) - 1
	if robu[last] < 5*raid[last] {
		t.Fatalf("at 128 disks RobuSTore %.0f not >> RAID-0 %.0f", robu[last], raid[last])
	}
	// RobuSTore bandwidth grows with disk count.
	if robu[last] <= robu[0] {
		t.Fatal("RobuSTore bandwidth did not grow with disks")
	}
}

func TestFig615Shape(t *testing.T) {
	ds, err := Fig615(tiny())
	checkDatasets(t, "fig6-15", ds, err)
	bw := ds[0]
	robu := bw.Series("RobuSTore")
	// RobuSTore missing at D=0, present and rising by D=2.
	if !math.IsNaN(robu[0]) {
		t.Fatal("RobuSTore should be absent at D=0")
	}
	var d1, d3 float64
	for i, p := range bw.Points {
		if p.X == 1 {
			d1 = robu[i]
		}
		if p.X == 3 {
			d3 = robu[i]
		}
	}
	if !(d3 > d1) {
		t.Fatalf("RobuSTore bandwidth at D=3 (%v) not above D=1 (%v)", d3, d1)
	}
}

func TestFig618WriteShape(t *testing.T) {
	ds, err := Fig618(tiny())
	checkDatasets(t, "fig6-18", ds, err)
	bw := ds[0]
	for i, p := range bw.Points {
		if p.X != 3 {
			continue
		}
		robu := bw.Series("RobuSTore")[i]
		rrs := bw.Series("RRAID-S")[i]
		if robu < 5*rrs {
			t.Fatalf("write at D=3: RobuSTore %.0f not >> RRAID-S %.0f", robu, rrs)
		}
	}
}

func TestFig624HomogeneousPenalty(t *testing.T) {
	ds, err := Fig624(tiny())
	checkDatasets(t, "fig6-24", ds, err)
	bw := ds[0]
	robu := bw.Series("RobuSTore")
	rrs := bw.Series("RRAID-S")
	last := len(bw.Points) - 1
	// §7.2: in homogeneous environments RobuSTore trails plain striping
	// (but by far less than its 50% reception overhead).
	if robu[last] > rrs[last]*1.05 {
		t.Fatalf("homogeneous: RobuSTore %.0f should not beat RRAID-S %.0f", robu[last], rrs[last])
	}
	if robu[last] < rrs[last]*0.4 {
		t.Fatalf("homogeneous: RobuSTore %.0f implausibly far below RRAID-S %.0f", robu[last], rrs[last])
	}
}

func TestFig635CacheShape(t *testing.T) {
	ds, err := Fig635(Options{Trials: 4, Seed: 1})
	checkDatasets(t, "fig6-35", ds, err)
	bw := ds[0]
	for i := range bw.Points {
		nc := bw.Series("no-cache")[i]
		c := bw.Series("cache")[i]
		if c <= nc {
			t.Fatalf("scheme %d: cached bandwidth %.0f not above uncached %.0f", i, c, nc)
		}
	}
}

func TestHeadline(t *testing.T) {
	ds, err := Headline(tiny())
	checkDatasets(t, "headline", ds, err)
	if len(ds[0].Points) != 4 {
		t.Fatalf("headline has %d rows, want 4", len(ds[0].Points))
	}
	if len(ds[0].Notes) < 3 {
		t.Fatal("headline missing ratio notes")
	}
}

func TestFig51Structure(t *testing.T) {
	ds, err := Fig51(Options{Trials: 2, Seed: 1})
	checkDatasets(t, "fig5-1", ds, err)
	if len(ds) != 6 { // mean+std per K in {128,512,1024}
		t.Fatalf("fig5-1 produced %d datasets, want 6", len(ds))
	}
}

func TestFig52And53Structure(t *testing.T) {
	ds, err := Fig52(Options{Trials: 2, Seed: 1})
	checkDatasets(t, "fig5-2", ds, err)
	ds, err = Fig53(Options{Trials: 2, Seed: 1})
	checkDatasets(t, "fig5-3", ds, err)
	// Decode bandwidth should be far above the paper's disk speeds.
	bw := ds[0].Series("δ=0.1")
	for _, v := range bw {
		if !math.IsNaN(v) && v < 50 {
			t.Fatalf("decode bandwidth %v MBps implausibly low", v)
		}
	}
}

func TestRemainingExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke sweep skipped in -short")
	}
	for _, id := range []string{"fig6-9", "fig6-12", "fig6-21", "fig6-26", "fig6-29", "fig6-32"} {
		ds, err := Run(id, Options{Trials: 2, Seed: 1})
		checkDatasets(t, id, ds, err)
	}
}

func TestPlotRendering(t *testing.T) {
	d := Dataset{ID: "p", Title: "plot", XLabel: "x", Order: []string{"a", "b"}}
	d.Add(1, map[string]float64{"a": 0, "b": 10})
	d.Add(2, map[string]float64{"a": 5, "b": math.NaN()})
	d.Add(3, map[string]float64{"a": 10, "b": 0})
	var sb strings.Builder
	d.Plot(&sb, 8)
	out := sb.String()
	if !strings.Contains(out, "*=a") || !strings.Contains(out, "o=b") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "10") {
		t.Fatalf("y-axis label missing:\n%s", out)
	}
	// Degenerate datasets must not panic.
	empty := Dataset{ID: "e", Title: "empty"}
	empty.Plot(&sb, 8)
	flat := Dataset{ID: "f", Title: "flat", Order: []string{"a"}}
	flat.Add(1, map[string]float64{"a": 3})
	flat.Plot(&sb, 8)
	nan := Dataset{ID: "n", Title: "nan", Order: []string{"a"}}
	nan.Add(1, map[string]float64{"a": math.NaN()})
	nan.Plot(&sb, 8)
}
