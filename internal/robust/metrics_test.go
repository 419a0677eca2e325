package robust

import (
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

// documentedMetrics returns the names listed in metrics.go's header
// comment: the first word of each indented comment line, plus the
// second name of an "a / b" pair.
func documentedMetrics(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("metrics.go")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(src), "// Metric names (DESIGN.md §7):\n")
	if !ok {
		t.Fatal("metrics.go has no metric-name list")
	}
	var names []string
	for _, line := range strings.Split(list, "\n") {
		entry, ok := strings.CutPrefix(line, "//\t")
		if !ok {
			if line == "//" {
				continue
			}
			break
		}
		f := strings.Fields(entry)
		names = append(names, f[0])
		if len(f) >= 3 && f[1] == "/" {
			names = append(names, f[2])
		}
	}
	return names
}

// The metric list in metrics.go's header names exactly the metrics
// newClientMetrics registers, so a metric cannot be added or removed
// without its documentation following.
func TestMetricInventoryMatchesCode(t *testing.T) {
	reg := obs.NewRegistry()
	newClientMetrics(reg)
	snap := reg.Snapshot()
	registered := make(map[string]bool)
	for name := range snap.Counters {
		registered[name] = true
	}
	for name := range snap.Gauges {
		registered[name] = true
	}
	for name := range snap.Histograms {
		registered[name] = true
	}
	for _, name := range documentedMetrics(t) {
		if !registered[name] {
			t.Errorf("metrics.go documents %s, which newClientMetrics does not register (or documents twice)", name)
		}
		delete(registered, name)
	}
	for name := range registered {
		t.Errorf("newClientMetrics registers %s, which metrics.go does not document", name)
	}
}
