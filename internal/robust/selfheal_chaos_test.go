package robust

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/transport"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosSelfHealingEvictRepairRejoin is the full control-plane
// loop on real TCP servers: kill a server mid-life, the prober-fed
// failure detector must evict it, the scrub daemon must restore full
// redundancy on the survivors, and when the server comes back on the
// same address the detector must let it rejoin — all without any
// manual operation.
func TestChaosSelfHealingEvictRepairRejoin(t *testing.T) {
	reg := obs.NewRegistry()
	tracker := health.NewTracker(health.Options{
		SuspectAfter: 2,
		DownAfter:    4,
		DownTimeout:  150 * time.Millisecond,
		Obs:          reg,
	})
	client, servers := startChaosCluster(t, 5,
		Options{BlockBytes: 4 << 10, MaxServerShare: 0.3, Health: tracker, Obs: reg},
		transport.ClientOptions{})
	ctx := context.Background()

	prober := health.NewProber(tracker, client.Servers, client.Probe,
		health.ProberOptions{Interval: 10 * time.Millisecond, Obs: reg})
	prober.Start()
	defer prober.Stop()
	daemon := NewDaemon(client, DaemonOptions{ScrubInterval: 25 * time.Millisecond, Obs: reg})
	daemon.Start()
	defer daemon.Stop()

	data := randData(64<<10, 99) // K=16
	ws, err := client.Write(ctx, "seg", data, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Kill a server that holds shares outright (the rateless write
	// decides which do): connections drop, probes fail.
	victim := holdersByShare(ws.PerServer)[0]
	var dead *chaosServer
	for _, cs := range servers {
		if cs.addr == victim {
			dead = cs
		}
	}
	dead.srv.Close()

	// The detector walks it Up → Suspect → Down and evicts it.
	waitUntil(t, 5*time.Second, "detector eviction", func() bool {
		return tracker.State(dead.addr) == health.Down
	})

	// The daemon notices the redundancy deficit and repairs it onto the
	// survivors: placement drops the dead holder and the deficit closes.
	waitUntil(t, 10*time.Second, "daemon repair", func() bool {
		audit, err := client.Audit(ctx, "seg")
		if err != nil || audit.NeedsRepair() {
			return false
		}
		info, err := client.Stat("seg")
		if err != nil {
			return false
		}
		_, onDead := info.Servers[dead.addr]
		return !onDead
	})

	got, _, err := client.Read(ctx, "seg")
	if err != nil {
		t.Fatalf("read after self-heal: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after self-heal")
	}

	// The server returns on the same address (fresh process, empty
	// disk). The next successful probe readmits it.
	ln, err := net.Listen("tcp", dead.addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", dead.addr, err)
	}
	restarted := transport.NewServer(
		blockstore.WithChecksums(blockstore.NewMemStore()), transport.ServerOptions{})
	go restarted.Serve(ln)
	t.Cleanup(func() { restarted.Close() })

	waitUntil(t, 5*time.Second, "detector rejoin", func() bool {
		return tracker.State(dead.addr) == health.Up
	})

	// A fresh write may target the rejoined server again.
	if _, err := client.Write(ctx, "seg2", randData(16<<10, 100), nil); err != nil {
		t.Fatalf("write after rejoin: %v", err)
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"health_evictions_total",
		"health_rejoins_total",
		"health_probes_total",
		"scrub_passes_total",
		"repair_queue_enqueued_total",
		"repair_queue_repaired_total",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("metric %s not recorded", name)
		}
	}
}

// TestChaosSelfHealingCorruptionSweep verifies the daemon turns
// server-side bit rot (beneath the wire, caught by the SCRUB op) into
// regenerated shares without a client read ever tripping on it.
func TestChaosSelfHealingCorruptionSweep(t *testing.T) {
	reg := obs.NewRegistry()
	client, servers := startChaosCluster(t, 4,
		Options{BlockBytes: 4 << 10, MaxServerShare: 0.3, Obs: reg},
		transport.ClientOptions{})
	ctx := context.Background()

	data := randData(32<<10, 101) // K=8
	if _, err := client.Write(ctx, "seg", data, nil); err != nil {
		t.Fatal(err)
	}

	// Rot one share at rest, beneath the server's checksum layer — the
	// on-disk bit rot only the SCRUB op can surface.
	seg, err := client.meta.LookupSegment("seg")
	if err != nil {
		t.Fatal(err)
	}
	rotAddr, rotIdx := "", -1
	for _, cs := range servers {
		if held := seg.Placement[cs.addr]; len(held) > 0 {
			rotAddr, rotIdx = cs.addr, held[0]
			framed, err := cs.mem.Get(ctx, "seg", rotIdx)
			if err != nil {
				t.Fatal(err)
			}
			rotten := append([]byte(nil), framed...)
			rotten[len(rotten)/2] ^= 0xFF
			if err := cs.mem.Put(ctx, "seg", rotIdx, rotten); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if rotAddr == "" {
		t.Fatal("no server holds a share to rot")
	}

	daemon := NewDaemon(client, DaemonOptions{ScrubInterval: 20 * time.Millisecond, Obs: reg})
	daemon.Start()
	defer daemon.Stop()

	waitUntil(t, 10*time.Second, "corruption detected", func() bool {
		return reg.Snapshot().Counters["scrub_corrupt_shares_total"] > 0
	})

	waitUntil(t, 10*time.Second, "corruption healed", func() bool {
		audit, err := client.Audit(ctx, "seg")
		return err == nil && !audit.NeedsRepair()
	})

	got, _, err := client.Read(ctx, "seg")
	if err != nil {
		t.Fatalf("read after corruption sweep: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after corruption sweep")
	}
}
