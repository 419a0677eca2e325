package robust

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/obs"
)

// tbClock is a hand-advanced clock for token-bucket arithmetic.
type tbClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *tbClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *tbClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTokenBucketReservation(t *testing.T) {
	clk := &tbClock{t: time.Unix(0, 0)}
	// 100 tokens/s, burst 100.
	b := newTokenBucket(100, 100, clk.Now)
	if w := b.take(100); w != 0 {
		t.Fatalf("burst take should be free, waited %v", w)
	}
	// Bucket empty: 50 more tokens cost 500ms at 100/s.
	if w := b.take(50); w != 500*time.Millisecond {
		t.Fatalf("take(50) wait = %v, want 500ms", w)
	}
	// A second taker owes its debt on top of the first reservation.
	if w := b.take(50); w != time.Second {
		t.Fatalf("stacked take(50) wait = %v, want 1s", w)
	}
	// After the debt window passes the bucket is level again.
	clk.Advance(time.Second)
	if w := b.take(0); w != 0 {
		t.Fatalf("zero take should never wait, got %v", w)
	}
	clk.Advance(time.Second)
	if w := b.take(100); w != 0 {
		t.Fatalf("refilled bucket should serve the burst, waited %v", w)
	}
	// Refill is capped at the burst.
	clk.Advance(time.Hour)
	if w := b.take(150); w != 500*time.Millisecond {
		t.Fatalf("over-burst take wait = %v, want 500ms", w)
	}
}

func TestTokenBucketDisabled(t *testing.T) {
	if b := newTokenBucket(0, 0, time.Now); b != nil {
		t.Fatal("zero rate should disable the bucket")
	}
	var b *tokenBucket
	if w := b.take(1 << 40); w != 0 {
		t.Fatalf("nil bucket waited %v", w)
	}
}

func TestOrderAudits(t *testing.T) {
	queue := []SegmentAudit{
		{Name: "c", N: 10, Live: 8},                 // deficit 2
		{Name: "a", N: 10, Live: 9},                 // deficit 1
		{Name: "d", N: 10, Live: 4, Degraded: true}, // degraded, deficit 6
		{Name: "b", N: 10, Live: 8},                 // deficit 2, name before c
		{Name: "e", N: 10, Live: 6, Degraded: true}, // degraded, deficit 4
	}
	orderAudits(queue)
	var names []string
	for _, a := range queue {
		names = append(names, a.Name)
	}
	want := []string{"d", "e", "b", "c", "a"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order = %v, want %v", names, want)
		}
	}
}

// newDaemonClient builds a client over checksummed in-memory stores,
// returning the raw inner stores so tests can rot blocks beneath the
// integrity framing.
func newDaemonClient(t *testing.T, reg *obs.Registry, addrs ...string) (*Client, map[string]*blockstore.MemStore) {
	t.Helper()
	c, err := NewClient(metadata.NewService(), Options{
		BlockBytes:     1 << 10,
		MaxServerShare: 0.28,
		Obs:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	inners := make(map[string]*blockstore.MemStore, len(addrs))
	for _, a := range addrs {
		inner := blockstore.NewMemStore()
		inners[a] = inner
		if err := c.AttachStore(a, blockstore.WithChecksums(inner)); err != nil {
			t.Fatal(err)
		}
	}
	return c, inners
}

func TestAuditCountsLossAndCorruption(t *testing.T) {
	c, inners := newDaemonClient(t, nil, "s1", "s2", "s3", "s4")
	ctx := context.Background()
	data := randData(8<<10, 2)
	if _, err := c.Write(ctx, "seg", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("seg")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := c.Audit(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, idx := range seg.Placement {
		total += len(idx)
	}
	if clean.Live != total || clean.Corrupt != 0 || clean.Missing != 0 {
		t.Fatalf("clean audit = %+v, want live=%d", clean, total)
	}
	if clean.NeedsRepair() {
		t.Fatal("clean segment queued for repair")
	}

	// Delete one share and rot another on s1.
	held := seg.Placement["s1"]
	if len(held) < 2 {
		t.Fatalf("s1 holds %d shares, need 2", len(held))
	}
	if err := inners["s1"].Delete(ctx, "seg", held[0]); err != nil {
		t.Fatal(err)
	}
	framed, err := inners["s1"].Get(ctx, "seg", held[1])
	if err != nil {
		t.Fatal(err)
	}
	rotten := append([]byte(nil), framed...)
	rotten[0] ^= 0xFF
	if err := inners["s1"].Put(ctx, "seg", held[1], rotten); err != nil {
		t.Fatal(err)
	}

	audit, err := c.Audit(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if audit.Missing != 1 || audit.Corrupt != 1 || audit.Live != total-2 {
		t.Fatalf("damaged audit = %+v, want missing=1 corrupt=1 live=%d", audit, total-2)
	}
	if got := audit.CorruptBy["s1"]; len(got) != 1 || got[0] != held[1] {
		t.Fatalf("CorruptBy = %v, want s1:[%d]", audit.CorruptBy, held[1])
	}
	if !audit.NeedsRepair() {
		t.Fatal("damaged segment not queued")
	}
}

func TestRepairSharesCountsEveryRegeneratedShare(t *testing.T) {
	for _, tc := range []struct {
		a    SegmentAudit
		want int
	}{
		{SegmentAudit{N: 32, Live: 32}, 0},
		// A rateless overshoot leaves surplus, but repair still
		// regenerates the lost share in place.
		{SegmentAudit{N: 32, Live: 34, Missing: 1}, 1},
		{SegmentAudit{N: 32, Live: 33, Missing: 1, Corrupt: 1}, 2},
		// No surplus: the lost shares are exactly the deficit.
		{SegmentAudit{N: 32, Live: 30, Missing: 1, Corrupt: 1}, 2},
		// A degraded commit is topped up to N as well.
		{SegmentAudit{N: 32, Live: 26, Missing: 2, Degraded: true}, 6},
	} {
		if got := tc.a.RepairShares(); got != tc.want {
			t.Errorf("RepairShares(%+v) = %d, want %d", tc.a, got, tc.want)
		}
	}
}

func TestDaemonRunOnceHealsLossAndCorruption(t *testing.T) {
	reg := obs.NewRegistry()
	c, inners := newDaemonClient(t, reg, "s1", "s2", "s3", "s4")
	ctx := context.Background()
	data := randData(8<<10, 3)
	if _, err := c.Write(ctx, "seg", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("seg")
	if err != nil {
		t.Fatal(err)
	}
	// Rot one share and delete another, on different servers.
	rotIdx := seg.Placement["s2"][0]
	framed, err := inners["s2"].Get(ctx, "seg", rotIdx)
	if err != nil {
		t.Fatal(err)
	}
	rotten := append([]byte(nil), framed...)
	rotten[len(rotten)-1] ^= 0x55
	if err := inners["s2"].Put(ctx, "seg", rotIdx, rotten); err != nil {
		t.Fatal(err)
	}
	if err := inners["s3"].Delete(ctx, "seg", seg.Placement["s3"][0]); err != nil {
		t.Fatal(err)
	}

	d := NewDaemon(c, DaemonOptions{Obs: reg})
	stats, err := d.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scanned != 1 || stats.Enqueued != 1 || stats.Repaired != 1 {
		t.Fatalf("stats = %+v, want scanned=enqueued=repaired=1", stats)
	}
	if stats.Corrupt != 1 || stats.Missing != 1 {
		t.Fatalf("stats = %+v, want corrupt=1 missing=1", stats)
	}

	// The pass restored full redundancy: a fresh audit is clean.
	after, err := c.Audit(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if after.Deficit() != 0 || after.Corrupt != 0 || after.NeedsRepair() {
		t.Fatalf("post-repair audit = %+v", after)
	}
	got, _, err := c.Read(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip mismatch after heal")
	}

	// A second pass finds nothing to do — the daemon is idempotent.
	stats2, err := d.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Enqueued != 0 || stats2.Repaired != 0 {
		t.Fatalf("second pass = %+v, want empty queue", stats2)
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"scrub_passes_total", "scrub_segments_total",
		"scrub_corrupt_shares_total", "repair_queue_enqueued_total",
		"repair_queue_repaired_total",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("metric %s not recorded", name)
		}
	}
	if snap.Gauges["repair_queue_depth"] != 0 {
		t.Errorf("queue depth = %v after drain", snap.Gauges["repair_queue_depth"])
	}
}

func TestDaemonThrottleUsesBucket(t *testing.T) {
	c, inners := newDaemonClient(t, nil, "s1", "s2", "s3", "s4")
	ctx := context.Background()
	data := randData(8<<10, 4)
	if _, err := c.Write(ctx, "seg", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("seg")
	if err != nil {
		t.Fatal(err)
	}
	if err := inners["s1"].Delete(ctx, "seg", seg.Placement["s1"][0]); err != nil {
		t.Fatal(err)
	}
	// Rate so high the deficit's charge clears in well under a test
	// tick, but with a tiny burst so the wait is still non-zero.
	d := NewDaemon(c, DaemonOptions{
		RepairRateBytesPerSec: 1 << 30,
		RepairBurstBytes:      1,
	})
	stats, err := d.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Repaired != 1 {
		t.Fatalf("stats = %+v, want one repair", stats)
	}
	if stats.Throttled <= 0 {
		t.Fatal("expected a throttle wait with a 1-byte burst")
	}
}

func TestDaemonStartStop(t *testing.T) {
	c, inners := newDaemonClient(t, nil, "s1", "s2", "s3", "s4")
	ctx := context.Background()
	data := randData(8<<10, 5)
	if _, err := c.Write(ctx, "seg", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("seg")
	if err != nil {
		t.Fatal(err)
	}
	if err := inners["s2"].Delete(ctx, "seg", seg.Placement["s2"][0]); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(c, DaemonOptions{ScrubInterval: 5 * time.Millisecond})
	d.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		audit, err := c.Audit(ctx, "seg")
		if err == nil && !audit.NeedsRepair() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never healed the segment: %+v (err=%v)", audit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.Stop()
	d.Stop() // idempotent
}
