package robust

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/health"
	"repro/internal/ltcode"
	"repro/internal/metadata"
)

// The real detector must satisfy the client's tracker surface.
var _ HealthTracker = (*health.Tracker)(nil)

// fakeTracker is a scriptable HealthTracker recording the outcomes
// the client feeds it.
type fakeTracker struct {
	mu        sync.Mutex
	excluded  map[string]bool
	successes map[string]int
	failures  map[string]int
}

func newFakeTracker() *fakeTracker {
	return &fakeTracker{
		excluded:  map[string]bool{},
		successes: map[string]int{},
		failures:  map[string]int{},
	}
}

func (f *fakeTracker) ReportSuccess(addr string) {
	f.mu.Lock()
	f.successes[addr]++
	f.mu.Unlock()
}

func (f *fakeTracker) ReportFailure(addr string) {
	f.mu.Lock()
	f.failures[addr]++
	f.mu.Unlock()
}

func (f *fakeTracker) Excluded(addr string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.excluded[addr]
}

func (f *fakeTracker) exclude(addr string, down bool) {
	f.mu.Lock()
	f.excluded[addr] = down
	f.mu.Unlock()
}

func (f *fakeTracker) counts(addr string) (succ, fail int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.successes[addr], f.failures[addr]
}

// newHealthClient builds a client over in-memory stores with the fake
// tracker plugged in. share, when positive, caps any server's block
// share to force multi-holder placement — instant in-memory stores
// otherwise let one server win the whole rateless race.
func newHealthClient(t *testing.T, tr HealthTracker, share float64, addrs ...string) *Client {
	t.Helper()
	c, err := NewClient(metadata.NewService(), Options{
		BlockBytes:     1 << 10,
		Health:         tr,
		MaxServerShare: share,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if err := c.AttachStore(a, blockstore.NewMemStore()); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestHealthExcludedServerSkippedOnWrite verifies a Down server gets
// no blocks when the caller lets the client pick targets.
func TestHealthExcludedServerSkippedOnWrite(t *testing.T) {
	tr := newFakeTracker()
	c := newHealthClient(t, tr, 0, "s1", "s2", "s3")
	tr.exclude("s2", true)
	data := randData(8<<10, 1)
	stats, err := c.Write(context.Background(), "seg", data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := stats.PerServer["s2"]; n != 0 {
		t.Fatalf("excluded server absorbed %d blocks", n)
	}
	// Rateless writes let whichever healthy server wins the race absorb
	// the blocks, so only the union is guaranteed.
	if stats.PerServer["s1"]+stats.PerServer["s3"] != stats.Committed {
		t.Fatalf("blocks leaked outside healthy servers: %v", stats.PerServer)
	}
	// Outcomes were reported for whichever servers served puts.
	s1, _ := tr.counts("s1")
	s3, _ := tr.counts("s3")
	if s1+s3 == 0 {
		t.Fatal("no success outcomes reported for healthy servers")
	}
}

// TestHealthAllExcludedFallsBack verifies total exclusion degrades to
// the full server set rather than ErrNoServers.
func TestHealthAllExcludedFallsBack(t *testing.T) {
	tr := newFakeTracker()
	c := newHealthClient(t, tr, 0, "s1", "s2")
	for _, a := range []string{"s1", "s2"} {
		tr.exclude(a, true)
	}
	data := randData(4<<10, 1)
	if _, err := c.Write(context.Background(), "seg", data, nil); err != nil {
		t.Fatalf("write with all servers excluded should fall back, got %v", err)
	}
	got, _, err := c.Read(context.Background(), "seg")
	if err != nil {
		t.Fatalf("read with all holders excluded should fall back, got %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip mismatch")
	}
}

// TestHealthExcludedHolderSkippedOnRead verifies reads avoid Down
// holders and still decode from the rest, and that fetch outcomes
// feed the tracker.
func TestHealthExcludedHolderSkippedOnRead(t *testing.T) {
	tr := newFakeTracker()
	c := newHealthClient(t, tr, 0.4, "s1", "s2", "s3")
	data := randData(8<<10, 1)
	if _, err := c.Write(context.Background(), "seg", data, nil); err != nil {
		t.Fatal(err)
	}
	tr.exclude("s1", true)
	got, stats, err := c.Read(context.Background(), "seg")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip mismatch")
	}
	if n := stats.PerServer["s1"]; n != 0 {
		t.Fatalf("read pulled %d blocks from excluded holder", n)
	}
	if s, _ := tr.counts("s2"); s == 0 {
		t.Fatal("no fetch outcomes reported for s2")
	}
}

// TestHealthRepairAvoidsExcluded verifies repair re-places lost
// blocks away from Down servers.
func TestHealthRepairAvoidsExcluded(t *testing.T) {
	tr := newFakeTracker()
	// Four holders, each capped well below 1/3 of the commit target, so
	// losing one server and excluding another leaves the two survivors
	// holding most of the shares.
	c := newHealthClient(t, tr, 0.28, "s1", "s2", "s3", "s4")
	data := randData(8<<10, 1)
	if _, err := c.Write(context.Background(), "seg", data, nil); err != nil {
		t.Fatal(err)
	}
	// Write timing decides which shares each server holds, and some
	// pairs of survivors do not decode K=8: lose and evict a pair whose
	// survivors do, so the repair read can succeed.
	seg, err := c.meta.LookupSegment("seg")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := c.segmentCodec(seg)
	if err != nil {
		t.Fatal(err)
	}
	var lost, evicted string
	for _, pair := range [][2]string{{"s1", "s2"}, {"s3", "s4"}, {"s1", "s3"}, {"s2", "s4"}, {"s1", "s4"}, {"s2", "s3"}} {
		decs := sc.decoders(ltcode.NewSymbolicDecoder)
		for addr, indices := range seg.Placement {
			for _, i := range indices {
				if ci, local, ok := sc.locate(i); ok && addr != pair[0] && addr != pair[1] {
					decs[ci].Add(local)
				}
			}
		}
		decodes := true
		for _, dec := range decs {
			decodes = decodes && dec.Solve()
		}
		if decodes {
			lost, evicted = pair[0], pair[1]
			break
		}
	}
	if lost == "" {
		t.Fatalf("no two of the four servers hold a decodable set: %v", seg.Placement)
	}
	// Lose one server entirely, and evict another, so repair must
	// rebuild onto the survivors without touching the evicted one.
	c.DetachStore(lost)
	tr.exclude(evicted, true)
	before, err := c.Stat("seg")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Repair(context.Background(), "seg")
	if err != nil {
		t.Fatal(err)
	}
	after, err := c.Stat("seg")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Regenerated > 0 && after.Servers[evicted] > before.Servers[evicted] {
		t.Fatalf("repair placed new blocks on excluded server: before=%v after=%v",
			before.Servers, after.Servers)
	}
	if _, ok := after.Servers[lost]; ok {
		t.Fatal("dead holder survived repair")
	}
}

// TestReportOutcomeClassification pins the liveness semantics: "not
// found" and corrupt shares are successes (the server answered),
// cancellation is no signal, anything else is a failure.
func TestReportOutcomeClassification(t *testing.T) {
	tr := newFakeTracker()
	c := newHealthClient(t, tr, 0, "s1")
	cases := []struct {
		err        error
		succ, fail int
	}{
		{nil, 1, 0},
		{blockstore.ErrNotFound, 1, 0},
		{ErrCorruptShare, 1, 0},
		{context.Canceled, 0, 0},
		{context.DeadlineExceeded, 0, 0},
		{errors.New("connection refused"), 0, 1},
	}
	for _, tc := range cases {
		before, beforeF := tr.counts("s1")
		c.reportOutcome("s1", tc.err)
		s, f := tr.counts("s1")
		if s-before != tc.succ || f-beforeF != tc.fail {
			t.Errorf("outcome(%v): Δsucc=%d Δfail=%d, want %d/%d",
				tc.err, s-before, f-beforeF, tc.succ, tc.fail)
		}
	}
}

// TestProbeUsesListFallback exercises Probe against a plain local
// store (no Pinger).
func TestProbeUsesListFallback(t *testing.T) {
	tr := newFakeTracker()
	c := newHealthClient(t, tr, 0, "s1")
	if err := c.Probe(context.Background(), "s1"); err != nil {
		t.Fatalf("probe of healthy local store: %v", err)
	}
	if err := c.Probe(context.Background(), "nope"); err == nil {
		t.Fatal("probe of unattached server should fail")
	}
}
