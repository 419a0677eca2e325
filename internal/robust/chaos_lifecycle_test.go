package robust

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/transport"
)

// Lifecycle chaos: the drain/remove/rejoin machinery under the same
// real-socket fault regime as the rest of the suite. The invariant
// throughout is the paper's: acknowledged writes are never lost, no
// matter what the operator or the failure detector is doing to the
// server set meanwhile.

// TestChaosDrainUnderFaults drains one server while another dies
// outright mid-drain. The repair and rebalance passes must between
// them finish the evacuation — every share off the draining server,
// metadata never pointing at it — with all acknowledged writes still
// readable byte-for-byte.
func TestChaosDrainUnderFaults(t *testing.T) {
	segments := 3
	if os.Getenv("ROBUSTORE_SOAK") != "" {
		segments = 8
	}
	reg := obs.NewRegistry()
	tracker := newFakeTracker()
	client, servers := startChaosCluster(t, 6,
		Options{BlockBytes: 8 << 10, MaxServerShare: 0.25, Health: tracker, Obs: reg},
		transport.ClientOptions{})
	ctx := context.Background()

	payloads := make(map[string][]byte, segments)
	for i := 0; i < segments; i++ {
		name := fmt.Sprintf("drain-%d", i)
		payloads[name] = randData(64<<10, int64(200+i))
		if _, err := client.Write(ctx, name, payloads[name], nil); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}

	draining := servers[0].addr
	if err := client.Meta().SetServerState(draining, metadata.ServerDraining); err != nil {
		t.Fatal(err)
	}
	// Mid-drain, a second server dies hard: every store op errors and
	// the failure detector marks it down.
	dead := servers[1].addr
	servers[1].storeInj.SetConfig(faultinject.Config{ErrProb: 1})
	tracker.exclude(dead, true)

	d := NewDaemon(client, DaemonOptions{Rebalance: true, Obs: reg})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := d.RunOnce(ctx); err != nil {
			t.Logf("repair pass (expected noise while %s is dead): %v", dead, err)
		}
		if _, err := d.RebalanceOnce(ctx); err != nil {
			t.Logf("rebalance pass: %v", err)
		}
		st, err := client.DrainProgress(draining)
		if err != nil {
			t.Fatal(err)
		}
		if st.Shares == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain stuck at %d shares with %s dead", st.Shares, dead)
		}
	}

	// Zero acked-write loss: every segment reads back intact, and no
	// placement references the drained server anymore.
	for name, want := range payloads {
		got, _, err := client.Read(ctx, name)
		if err != nil {
			t.Fatalf("read %s after drain: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("acked write %s lost during drain", name)
		}
		seg, err := client.Meta().LookupSegment(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(seg.Placement[draining]) != 0 {
			t.Fatalf("%s still places %v on the drained server", name, seg.Placement[draining])
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["rebalance_moves_total"] == 0 {
		t.Fatalf("drain completed without rebalance moves: %v", snap.Counters)
	}
	t.Logf("drain complete: %d moves, %d move errors, %d repair blocks",
		snap.Counters["rebalance_moves_total"],
		snap.Counters["rebalance_move_errors_total"],
		snap.Counters["repair_blocks_written_total"])
}

// TestChaosZoneLossReadSurvives writes with zone spreading and a zone
// share cap, then kills an entire zone. The cap guarantees the dead
// zone held at most ceil(frac*N) shares, so the surviving zones must
// carry the read on their own.
func TestChaosZoneLossReadSurvives(t *testing.T) {
	const frac = 0.34
	client, servers := startChaosCluster(t, 6,
		Options{BlockBytes: 8 << 10, MaxZoneShare: frac},
		transport.ClientOptions{})
	ctx := context.Background()
	// Re-register each server with a zone: two servers per zone, three
	// zones. The blank State preserves lifecycle on re-registration.
	zoneOf := map[string]string{}
	for i, cs := range servers {
		z := fmt.Sprintf("z%d", i%3)
		zoneOf[cs.addr] = z
		if err := client.Meta().RegisterServer(metadata.Server{Addr: cs.addr, Zone: z}); err != nil {
			t.Fatal(err)
		}
	}

	data := randData(64<<10, 210)
	ws, err := client.WriteWithQoS(ctx, "zoned", data, QoS{SpreadZones: true})
	if err != nil {
		t.Fatal(err)
	}
	cap := placement.ZoneCapShares(frac, ws.N)
	perZone := map[string]int{}
	for addr, n := range ws.PerServer {
		perZone[zoneOf[addr]] += n
	}
	for z, n := range perZone {
		if n > cap {
			t.Fatalf("zone %s committed %d/%d shares over cap %d", z, n, ws.N, cap)
		}
	}

	// Zone z0 goes dark: both of its servers fail every operation and
	// reset connections.
	for i, cs := range servers {
		if i%3 == 0 {
			cs.storeInj.SetConfig(faultinject.Config{ErrProb: 1})
			cs.connInj.SetConfig(faultinject.Config{ResetProb: 0.5})
		}
	}
	got, rs, err := client.Read(ctx, "zoned")
	if err != nil {
		t.Fatalf("read after zone loss: %v (stats %+v)", err, rs)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after zone loss")
	}
	t.Logf("zone loss survived: per-zone %v (cap %d), %d failed gets", perZone, cap, rs.FailedGets)
}

// TestChaosRejoinRebalanceConverges drains a server, writes while it
// is out of rotation, rejoins it, and checks the rebalancer converges
// shares back onto it — the rejoin path of the lifecycle.
func TestChaosRejoinRebalanceConverges(t *testing.T) {
	segments := 2
	if os.Getenv("ROBUSTORE_SOAK") != "" {
		segments = 6
	}
	reg := obs.NewRegistry()
	client, servers := startChaosCluster(t, 4,
		Options{BlockBytes: 8 << 10, MaxServerShare: 0.5, Obs: reg},
		transport.ClientOptions{})
	ctx := context.Background()
	rejoining := servers[3].addr
	if err := client.Meta().SetServerState(rejoining, metadata.ServerDraining); err != nil {
		t.Fatal(err)
	}

	payloads := make(map[string][]byte, segments)
	for i := 0; i < segments; i++ {
		name := fmt.Sprintf("rejoin-%d", i)
		payloads[name] = randData(64<<10, int64(220+i))
		if _, err := client.Write(ctx, name, payloads[name], nil); err != nil {
			t.Fatal(err)
		}
		seg, err := client.Meta().LookupSegment(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(seg.Placement[rejoining]) != 0 {
			t.Fatalf("%s placed shares on the draining server", name)
		}
	}

	// Rejoin and rebalance: the empty server must soak up load.
	if err := client.Meta().SetServerState(rejoining, metadata.ServerActive); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(client, DaemonOptions{Rebalance: true, Obs: reg})
	stats, err := d.RebalanceOnce(ctx)
	if err != nil {
		t.Fatalf("rebalance after rejoin: %v", err)
	}
	gained := 0
	for name, want := range payloads {
		seg, err := client.Meta().LookupSegment(name)
		if err != nil {
			t.Fatal(err)
		}
		gained += len(seg.Placement[rejoining])
		got, _, err := client.Read(ctx, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %s after rebalance: %v", name, err)
		}
	}
	if gained == 0 {
		t.Fatalf("rejoined server gained no shares (stats %+v)", stats)
	}
	t.Logf("rejoin converged: %d shares onto %s in %d moves", gained, rejoining, stats.Moved)
}
