package robust

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/placement"
)

// newLifecycleClient builds a client over in-memory stores with every
// server registered (optionally zoned), returning the metadata
// service so tests can flip lifecycle states.
func newLifecycleClient(t *testing.T, opts Options, zones map[string]string, addrs ...string) (*Client, *metadata.Service) {
	t.Helper()
	meta := metadata.NewService()
	c, err := NewClient(meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if err := c.AttachStore(a, blockstore.NewMemStore()); err != nil {
			t.Fatal(err)
		}
		if err := meta.RegisterServer(metadata.Server{Addr: a, Zone: zones[a]}); err != nil {
			t.Fatal(err)
		}
	}
	return c, meta
}

// TestSelectServersFallbackLadder is the regression for the flat
// selector's failure mode: health exclusion used to be able to empty
// the candidate set. The ladder must degrade deterministically —
// Draining before Down, Down-excluded servers re-admitted last — and
// only an all-Removed registry yields ErrNoServers.
func TestSelectServersFallbackLadder(t *testing.T) {
	reg := obs.NewRegistry()
	tracker := newFakeTracker()
	c, meta := newLifecycleClient(t, Options{Health: tracker, Obs: reg}, nil, "s1", "s2", "s3")

	// Healthy cluster: all three are eligible, no fallback recorded.
	sel, err := c.SelectServers(QoS{})
	if err != nil || len(sel) != 3 {
		t.Fatalf("healthy selection = %v, %v", sel, err)
	}
	if n := reg.Snapshot().Counters["placement_fallback_total"]; n != 0 {
		t.Fatalf("healthy selection recorded %d fallbacks", n)
	}

	// Draining servers leave the pool while Actives remain.
	if err := meta.SetServerState("s1", metadata.ServerDraining); err != nil {
		t.Fatal(err)
	}
	sel, err = c.SelectServers(QoS{})
	if err != nil || len(sel) != 2 {
		t.Fatalf("selection with one draining = %v, %v", sel, err)
	}
	for _, a := range sel {
		if a == "s1" {
			t.Fatal("draining server selected while Active servers exist")
		}
	}

	// Every Active server Down: the draining-but-alive server carries.
	tracker.exclude("s2", true)
	tracker.exclude("s3", true)
	sel, err = c.SelectServers(QoS{})
	if err != nil || len(sel) != 1 || sel[0] != "s1" {
		t.Fatalf("selection = %v, %v; want the draining survivor", sel, err)
	}

	// Everything Down too: Down servers are re-admitted last instead
	// of returning ErrNoServers — the cluster may merely have flapped.
	tracker.exclude("s1", true)
	sel, err = c.SelectServers(QoS{})
	if err != nil || len(sel) == 0 {
		t.Fatalf("all-down selection = %v, %v; want re-admission", sel, err)
	}
	if n := reg.Snapshot().Counters["placement_fallback_total"]; n == 0 {
		t.Fatal("degraded selections recorded no placement_fallback_total")
	}

	// Removed is the only terminal state: tombstone everything and the
	// selector finally reports ErrNoServers.
	for _, a := range []string{"s1", "s2", "s3"} {
		if err := meta.SetServerState(a, metadata.ServerRemoved); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.SelectServers(QoS{}); !errors.Is(err, ErrNoServers) {
		t.Fatalf("all-removed selection err = %v, want ErrNoServers", err)
	}
}

func TestWriteSkipsDrainingServers(t *testing.T) {
	c, meta := newLifecycleClient(t, Options{BlockBytes: 1 << 10}, nil, "s1", "s2", "s3", "s4")
	if err := meta.SetServerState("s4", metadata.ServerDraining); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := randData(32<<10, 90)
	ws, err := c.Write(ctx, "drain-skip", data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := ws.PerServer["s4"]; hit {
		t.Fatalf("write placed %d blocks on the draining server", ws.PerServer["s4"])
	}
	if got, _, err := c.Read(ctx, "drain-skip"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

func TestWriteZoneShareCap(t *testing.T) {
	zones := map[string]string{}
	var addrs []string
	for i := 0; i < 6; i++ {
		a := fmt.Sprintf("s%d", i)
		addrs = append(addrs, a)
		zones[a] = fmt.Sprintf("z%d", i%3)
	}
	c, _ := newLifecycleClient(t, Options{BlockBytes: 1 << 10, MaxZoneShare: 0.4}, zones, addrs...)
	ctx := context.Background()
	data := randData(64<<10, 91)
	ws, err := c.Write(ctx, "zone-cap", data, nil)
	if err != nil {
		t.Fatal(err)
	}
	cap := placement.ZoneCapShares(0.4, ws.N)
	perZone := map[string]int{}
	for addr, n := range ws.PerServer {
		perZone[zones[addr]] += n
	}
	for z, n := range perZone {
		if n > cap {
			t.Fatalf("zone %s committed %d shares over the cap %d (N=%d, per-server %v)",
				z, n, cap, ws.N, ws.PerServer)
		}
	}
	if got, _, err := c.Read(ctx, "zone-cap"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

func TestRebalanceDrainMigratesAllShares(t *testing.T) {
	reg := obs.NewRegistry()
	c, meta := newLifecycleClient(t, Options{BlockBytes: 1 << 10, MaxServerShare: 0.35, Obs: reg},
		nil, "s1", "s2", "s3", "s4")
	ctx := context.Background()
	data := randData(48<<10, 92)
	ws, err := c.Write(ctx, "drained", data, nil)
	if err != nil {
		t.Fatal(err)
	}
	drained := holdersByShare(ws.PerServer)[0]
	if err := meta.SetServerState(drained, metadata.ServerDraining); err != nil {
		t.Fatal(err)
	}
	st, err := c.DrainProgress(drained)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Shares

	d := NewDaemon(c, DaemonOptions{Rebalance: true, Obs: reg})
	stats, err := d.RebalanceOnce(ctx)
	if err != nil {
		t.Fatalf("rebalance: %v (stats %+v)", err, stats)
	}
	st, err = c.DrainProgress(drained)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shares != 0 {
		t.Fatalf("drain incomplete: %d shares still on %s after %+v", st.Shares, drained, stats)
	}
	if before > 0 && stats.Moved == 0 {
		t.Fatalf("drain completed with zero moves (held %d before): %+v", before, stats)
	}
	seg, err := meta.LookupSegment("drained")
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := seg.Placement[drained]; hit {
		t.Fatal("placement still references the drained server")
	}
	if got, _, err := c.Read(ctx, "drained"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after drain: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["rebalance_moves_total"] == 0 || snap.Counters["rebalance_bytes_total"] == 0 {
		t.Fatalf("rebalance metrics missing: %v", snap.Counters)
	}
}

func TestRebalanceRespectsRateLimit(t *testing.T) {
	reg := obs.NewRegistry()
	c, meta := newLifecycleClient(t, Options{BlockBytes: 1 << 10, MaxServerShare: 0.35, Obs: reg},
		nil, "s1", "s2", "s3", "s4")
	ctx := context.Background()
	ws, err := c.Write(ctx, "ratelimited", randData(32<<10, 93), nil)
	if err != nil {
		t.Fatal(err)
	}
	drained := holdersByShare(ws.PerServer)[0]
	if err := meta.SetServerState(drained, metadata.ServerDraining); err != nil {
		t.Fatal(err)
	}
	// Burst of one share, refill fast enough that each subsequent move
	// waits ~1ms: the throttle engages measurably without slowing the
	// test measurably.
	d := NewDaemon(c, DaemonOptions{
		Rebalance:             true,
		RepairRateBytesPerSec: 1 << 20,
		RepairBurstBytes:      1 << 10,
		Obs:                   reg,
	})
	stats, err := d.RebalanceOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moved < 2 {
		t.Fatalf("expected multiple moves, got %+v", stats)
	}
	if stats.Throttled == 0 {
		t.Fatalf("token bucket never engaged: %+v", stats)
	}
	snap := reg.Snapshot()
	h, ok := snap.Histograms["rebalance_throttle_seconds"]
	if !ok || h.Count == 0 {
		t.Fatal("rebalance_throttle_seconds histogram empty")
	}
	// Throughput respected the budget: moved bytes never exceed burst
	// plus rate x (observed throttle time + execution slack).
	if st, _ := c.DrainProgress(drained); st.Shares != 0 {
		t.Fatalf("drain incomplete under throttling: %d left", st.Shares)
	}
}

func TestRebalanceRejoinConverges(t *testing.T) {
	c, meta := newLifecycleClient(t, Options{BlockBytes: 1 << 10}, nil, "s1", "s2")
	ctx := context.Background()
	data := randData(32<<10, 94)
	if _, err := c.Write(ctx, "rejoin", data, nil); err != nil {
		t.Fatal(err)
	}
	// A third server joins (a rejoin after remove/re-add looks the
	// same: an empty Active server).
	if err := c.AttachStore("s3", blockstore.NewMemStore()); err != nil {
		t.Fatal(err)
	}
	if err := meta.RegisterServer(metadata.Server{Addr: "s3"}); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(c, DaemonOptions{Rebalance: true})
	stats, err := d.RebalanceOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := meta.LookupSegment("rejoin")
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Placement["s3"]) == 0 {
		t.Fatalf("rejoined server got no shares (stats %+v, placement %v)",
			stats, countPlacement(seg.Placement))
	}
	if got, _, err := c.Read(ctx, "rejoin"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after rebalance: %v", err)
	}
}

func TestRebalanceSkipsStaleMoves(t *testing.T) {
	c, meta := newLifecycleClient(t, Options{BlockBytes: 1 << 10}, nil, "s1", "s2", "s3")
	ctx := context.Background()
	ws, err := c.Write(ctx, "stale", randData(16<<10, 95), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := meta.SetServerState(holdersByShare(ws.PerServer)[0], metadata.ServerDraining); err != nil {
		t.Fatal(err)
	}
	seg, err := meta.LookupSegment("stale")
	if err != nil {
		t.Fatal(err)
	}
	moves := placement.PlanSegment("stale", seg.Placement, c.placementCandidates(), placement.RebalancePolicy{})
	if len(moves) == 0 {
		t.Skip("planner found nothing to move")
	}
	// The placement changes under the plan: a concurrent repair (here,
	// a manual rewrite) rehomes the planned share before execution.
	mv := moves[0]
	home := "s3"
	if mv.From == home {
		home = "s2"
	}
	seg.Placement[mv.From] = removeIndex(seg.Placement[mv.From], mv.Index)
	seg.Placement[home] = append(seg.Placement[home], mv.Index)
	if err := meta.UpdateSegment(seg); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(c, DaemonOptions{})
	moved, err := d.executeMove(ctx, mv)
	if err != nil {
		t.Fatalf("stale move errored: %v", err)
	}
	if moved {
		t.Fatal("stale move executed instead of skipping")
	}
}

func TestDaemonStartRunsRebalancePhase(t *testing.T) {
	reg := obs.NewRegistry()
	c, meta := newLifecycleClient(t, Options{BlockBytes: 1 << 10, Obs: reg}, nil, "s1", "s2", "s3")
	ctx := context.Background()
	if _, err := c.Write(ctx, "bg", randData(16<<10, 96), nil); err != nil {
		t.Fatal(err)
	}
	if err := meta.SetServerState("s1", metadata.ServerDraining); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(c, DaemonOptions{ScrubInterval: 5 * time.Millisecond, Rebalance: true, Obs: reg})
	d.Start()
	// Wait for both the drain to finish and a full rebalance phase to
	// have run: the repair pass may evacuate s1 on its own, so the
	// share count alone doesn't prove the rebalance phase fired.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := c.DrainProgress("s1")
		if err == nil && st.Shares == 0 &&
			reg.Snapshot().Counters["rebalance_passes_total"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			d.Stop()
			t.Fatalf("background rebalance incomplete: %+v, passes=%d",
				st, reg.Snapshot().Counters["rebalance_passes_total"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.Stop()
}
