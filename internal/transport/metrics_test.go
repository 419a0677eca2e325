package transport

import (
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

// documentedMetrics returns the names listed in metrics.go's header
// comment: the first word of each indented comment line, with its
// {a,b,...} group expanded to one name per alternative.
func documentedMetrics(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("metrics.go")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(src), "// Metric names (DESIGN.md §7)")
	if !ok {
		t.Fatal("metrics.go has no metric-name list")
	}
	var names []string
	inList := false
	for _, line := range strings.Split(list, "\n") {
		entry, ok := strings.CutPrefix(line, "//\t")
		if !ok {
			if inList && line != "//" {
				break
			}
			continue
		}
		inList = true
		pattern := strings.Fields(entry)[0]
		head, rest, found := strings.Cut(pattern, "{")
		if !found {
			names = append(names, pattern)
			continue
		}
		alts, tail, closed := strings.Cut(rest, "}")
		if !closed {
			t.Fatalf("metrics.go: unclosed group in %q", pattern)
		}
		for _, alt := range strings.Split(alts, ",") {
			names = append(names, head+alt+tail)
		}
	}
	return names
}

// The metric list in metrics.go's header names exactly the metrics
// newClientMetrics and newServerMetrics register, so a transport
// metric cannot be added or removed without its documentation
// following.
func TestMetricInventoryMatchesCode(t *testing.T) {
	reg := obs.NewRegistry()
	newClientMetrics(reg)
	newServerMetrics(reg)
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
	documented := documentedMetrics(t)
	if len(documented) == 0 {
		t.Fatal("metrics.go lists no metrics")
	}
	for _, name := range documented {
		if !registered[name] {
			t.Errorf("metrics.go documents %s, which is not registered (or is documented twice)", name)
		}
		delete(registered, name)
	}
	for name := range registered {
		t.Errorf("%s is registered but not documented in metrics.go", name)
	}
}
