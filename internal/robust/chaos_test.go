package robust

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/faultinject"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/transport"
)

// The chaos suite drives real client/server pairs (TCP loopback, the
// full block protocol) through faultinject scenarios and asserts the
// recovery pipeline — transport retries, hedged reads, share
// checksums, degraded commits, repair promotion — holds under the
// paper's failure regime (§2.2.3, §6): sustained partial failure, not
// clean crashes.

// chaosServer is one TCP block server whose store and listener can be
// independently fault-wrapped.
type chaosServer struct {
	addr     string
	srv      *transport.Server
	mem      *blockstore.MemStore  // raw store beneath the checksum layer
	storeInj *faultinject.Injector // faults inside the store handler
	connInj  *faultinject.Injector // faults on the wire
}

// startChaosCluster launches n block servers with per-server
// injectors (initially configured off) and a robust client connected
// to all of them through real transport clients.
func startChaosCluster(t *testing.T, n int, ropts Options, copts transport.ClientOptions) (*Client, []*chaosServer) {
	t.Helper()
	meta := metadata.NewService()
	client, err := NewClient(meta, ropts)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*chaosServer, n)
	for i := range servers {
		cs := &chaosServer{
			mem:      blockstore.NewMemStore(),
			storeInj: faultinject.New(int64(1000+i), faultinject.Config{}, nil),
			connInj:  faultinject.New(int64(2000+i), faultinject.Config{}, nil),
		}
		store := faultinject.WrapStore(blockstore.WithChecksums(cs.mem), cs.storeInj)
		cs.srv = transport.NewServer(store, transport.ServerOptions{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cs.addr = ln.Addr().String()
		go cs.srv.Serve(faultinject.WrapListener(ln, cs.connInj))
		servers[i] = cs
	}
	t.Cleanup(func() {
		for _, cs := range servers {
			cs.storeInj.SetConfig(faultinject.Config{})
			cs.connInj.SetConfig(faultinject.Config{})
			cs.srv.Close()
		}
	})
	for _, cs := range servers {
		tc, err := transport.Dial(cs.addr, copts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tc.Close() })
		if err := client.AttachStore(cs.addr, tc); err != nil {
			t.Fatal(err)
		}
		meta.RegisterServer(metadata.Server{Addr: cs.addr})
	}
	return client, servers
}

// TestChaosStalledAndCorruptingRead is the headline recovery
// scenario: 8 servers, a healthy write, then 2 servers begin stalling
// every store operation and 1 starts corrupting every GET payload
// above its server-side checksum layer (i.e. transit corruption that
// only the client's share CRC can see). The speculative read must
// complete with intact data well before the stall duration, rejecting
// every corrupt share instead of feeding it to the decoder.
func TestChaosStalledAndCorruptingRead(t *testing.T) {
	reg := obs.NewRegistry()
	// Long enough that waiting it out would trip the assertion, short
	// enough that test cleanup (which must wait for server handlers
	// parked in the injected sleep) stays cheap.
	const stall = 1500 * time.Millisecond
	// The healthy five servers must always hold more blocks than the
	// peeling decoder's worst observed reception tail (~2.6K at K=32):
	// D=5 and a 0.15 share cap guarantee them >= 105 of the 192 blocks
	// (3.3K), whatever the rateless race does. With the default D=3 and
	// a 0.25 cap they can end up with barely K, and the read has no
	// choice but to wait out a stall — a coding-margin artifact, not a
	// routing failure.
	client, servers := startChaosCluster(t, 8,
		Options{BlockBytes: 8 << 10, Redundancy: 5, MaxServerShare: 0.15, HedgeReads: true, Obs: reg},
		transport.ClientOptions{MaxRetries: 2})
	ctx := context.Background()
	data := randData(256<<10, 77) // K=32

	ws, err := client.Write(ctx, "chaos", data, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The weather turns: two servers wedge, one rots. The rotting
	// server is the biggest holder left and the only one answering at
	// once, so its corrupt shares reach the client before the healthy
	// ones can finish the decode: a read that completes on healthy
	// shares alone would prove nothing about rejection.
	servers[0].storeInj.SetConfig(faultinject.Config{StallProb: 1, Stall: stall})
	servers[1].storeInj.SetConfig(faultinject.Config{StallProb: 1, Stall: stall})
	rest := append([]*chaosServer(nil), servers[2:]...)
	sort.SliceStable(rest, func(i, j int) bool { return ws.PerServer[rest[i].addr] > ws.PerServer[rest[j].addr] })
	rest[0].storeInj.SetConfig(faultinject.Config{CorruptProb: 1, Ops: []string{"get"}})
	for _, cs := range rest[1:] {
		cs.storeInj.SetConfig(faultinject.Config{Latency: 2 * time.Millisecond, Ops: []string{"get"}})
	}

	start := time.Now()
	got, stats, err := client.Read(ctx, "chaos")
	if err != nil {
		t.Fatalf("read under chaos: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decoder poisoned: data mismatch under corruption")
	}
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("read took %v, waited out the %v stall instead of routing around it (stats %+v)", elapsed, stall, stats)
	}
	if stats.CorruptShares == 0 {
		t.Fatal("corrupting server surfaced no rejected shares")
	}
	snap := reg.Snapshot()
	if snap.Counters["robust_read_corrupt_shares_total"] == 0 {
		t.Fatal("robust_read_corrupt_shares_total not incremented")
	}
	t.Logf("read ok: %d corrupt shares rejected, %d failed gets, %d/%d hedge wins, %v",
		stats.CorruptShares, stats.FailedGets, stats.HedgeWins, stats.Hedges, stats.Duration)
}

// TestChaosConnResetsRecovered puts a flaky wire under the whole
// stack: every server's listener resets ~15% of exchanges and
// truncates another ~5% mid-frame. Transport-level retries (GETs) and
// rateless re-routing (PUTs) must still land a correct write/read
// round trip, and the retry counters must show recovery actually
// happened rather than the faults never firing.
func TestChaosConnResetsRecovered(t *testing.T) {
	reg := obs.NewRegistry()
	client, servers := startChaosCluster(t, 6,
		Options{BlockBytes: 8 << 10, Obs: reg},
		transport.ClientOptions{MaxRetries: 4, Obs: reg})
	ctx := context.Background()
	data := randData(256<<10, 78)

	for _, cs := range servers {
		cs.connInj.SetConfig(faultinject.Config{ResetProb: 0.15, ShortReadProb: 0.05})
	}

	ws, err := client.Write(ctx, "flaky", data, nil)
	if err != nil {
		t.Fatalf("write over flaky wire: %v", err)
	}
	got, rs, err := client.Read(ctx, "flaky")
	if err != nil {
		t.Fatalf("read over flaky wire: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch over flaky wire")
	}
	snap := reg.Snapshot()
	if ws.FailedPuts == 0 && snap.Counters["transport_client_retries_total"] == 0 {
		t.Fatal("no puts re-routed and no exchanges retried: faults never fired")
	}
	t.Logf("write: %d re-routed puts; read: %d failed gets; %d transport retries (%d won)",
		ws.FailedPuts, rs.FailedGets,
		snap.Counters["transport_client_retries_total"],
		snap.Counters["transport_client_retry_successes_total"])
}

// TestChaosDegradedWriteThenRepairPromotes is the graceful-degradation
// life cycle over real sockets: half the cluster rejects every PUT, so
// the write can only reach the degraded floor; it commits (marked
// Degraded) instead of failing. The servers then recover and Repair
// promotes the segment back to full redundancy.
func TestChaosDegradedWriteThenRepairPromotes(t *testing.T) {
	reg := obs.NewRegistry()
	client, servers := startChaosCluster(t, 4,
		Options{BlockBytes: 8 << 10, DegradedWrites: true, MaxServerShare: 0.25, Obs: reg},
		transport.ClientOptions{})
	ctx := context.Background()
	data := randData(64<<10, 79) // K=8, N=32, floor=ceil(1.75·8)=14

	// Two servers are down for writes. Their failures carry a small
	// injected latency so the healthy servers' puts land before the
	// failure budget can burn out (the same reasoning as capStore).
	down := faultinject.Config{Latency: 2 * time.Millisecond, ErrProb: 1, Ops: []string{"put"}}
	servers[2].storeInj.SetConfig(down)
	servers[3].storeInj.SetConfig(down)

	ws, err := client.Write(ctx, "degraded", data, nil)
	if !errors.Is(err, ErrDegradedWrite) {
		t.Fatalf("write error = %v, want ErrDegradedWrite", err)
	}
	if !ws.Degraded || ws.Committed >= ws.N {
		t.Fatalf("stats = %+v, want a degraded commit below N", ws)
	}
	got, _, err := client.Read(ctx, "degraded")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded segment unreadable: %v", err)
	}

	// Recovery: the failed servers come back, repair promotes.
	servers[2].storeInj.SetConfig(faultinject.Config{})
	servers[3].storeInj.SetConfig(faultinject.Config{})
	rs, err := client.Repair(ctx, "degraded")
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !rs.Promoted {
		t.Fatal("repair did not promote the degraded segment")
	}
	seg, err := client.Meta().LookupSegment("degraded")
	if err != nil {
		t.Fatal(err)
	}
	if seg.Degraded {
		t.Fatal("segment still marked Degraded after repair")
	}
	total := 0
	for _, idx := range seg.Placement {
		total += len(idx)
	}
	if total < ws.N {
		t.Fatalf("placement holds %d blocks after promotion, want >= %d", total, ws.N)
	}
	got, _, err = client.Read(ctx, "degraded")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("promoted segment unreadable: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["robust_write_degraded_total"] != 1 {
		t.Fatalf("robust_write_degraded_total = %d, want 1", snap.Counters["robust_write_degraded_total"])
	}
	if snap.Counters["robust_repair_promoted_total"] != 1 {
		t.Fatalf("robust_repair_promoted_total = %d, want 1", snap.Counters["robust_repair_promoted_total"])
	}
}

// TestChaosScenarioPhasedOutage runs a scheduled scenario: the
// cluster is healthy, degrades to heavy resets mid-test, then heals —
// the injector switches phases on its own clock while reads keep
// flowing. Every read must succeed in every phase.
func TestChaosScenarioPhasedOutage(t *testing.T) {
	client, servers := startChaosCluster(t, 5,
		Options{BlockBytes: 8 << 10},
		transport.ClientOptions{MaxRetries: 4})
	ctx := context.Background()
	data := randData(128<<10, 80)
	if _, err := client.Write(ctx, "phased", data, nil); err != nil {
		t.Fatal(err)
	}

	sc, err := faultinject.ParseScenario("0s:latency=0s;50ms:reset=0.3;150ms:reset=0")
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range servers {
		cs.connInj.Run(sc)
	}
	deadline := time.Now().Add(250 * time.Millisecond)
	reads := 0
	for time.Now().Before(deadline) {
		got, _, err := client.Read(ctx, "phased")
		if err != nil {
			t.Fatalf("read %d failed mid-scenario: %v", reads, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d returned wrong data", reads)
		}
		reads++
	}
	if reads < 3 {
		t.Fatalf("only %d reads completed across the scenario", reads)
	}
}

// BenchmarkChaosStalledRead measures the speculative read's tail
// under per-operation stalls, hedged vs unhedged: on every server,
// half of all GETs stall for 40ms. A single stalled *server* is
// routed around by redundancy alone, so per-op stalls everywhere are
// the regime where hedging earns its keep: a hedge re-draws the
// stall lottery on a fresh request instead of waiting the stall out.
func BenchmarkChaosStalledRead(b *testing.B) {
	for _, hedged := range []bool{false, true} {
		name := "unhedged"
		if hedged {
			name = "hedged"
		}
		b.Run(name, func(b *testing.B) {
			meta := metadata.NewService()
			reg := obs.NewRegistry()
			client, err := NewClient(meta, Options{
				BlockBytes:     8 << 10,
				MaxServerShare: 0.25,
				HedgeReads:     hedged,
				HedgeDelay:     5 * time.Millisecond,
				Obs:            reg,
			})
			if err != nil {
				b.Fatal(err)
			}
			injectors := make([]*faultinject.Injector, 6)
			for i := range injectors {
				injectors[i] = faultinject.New(int64(3000+i), faultinject.Config{}, nil)
				addr := fmt.Sprintf("mem-%02d", i)
				store := faultinject.WrapStore(blockstore.NewMemStore(), injectors[i])
				if err := client.AttachStore(addr, store); err != nil {
					b.Fatal(err)
				}
				meta.RegisterServer(metadata.Server{Addr: addr})
			}
			ctx := context.Background()
			data := randData(256<<10, 81)
			if _, err := client.Write(ctx, "bench", data, nil); err != nil {
				b.Fatal(err)
			}
			for _, in := range injectors {
				in.SetConfig(faultinject.Config{
					StallProb: 0.5, Stall: 40 * time.Millisecond, Ops: []string{"get"},
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := client.Read(ctx, "bench"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Metric units double as baseline keys (bench_baseline.sh
			// keeps units without a '/'), so they carry the variant name.
			ms := float64(b.Elapsed().Microseconds()) / 1000 / float64(b.N)
			b.ReportMetric(ms, "stalled_read_"+name+"_ms")
			if hedged {
				snap := reg.Snapshot()
				b.ReportMetric(float64(snap.Counters["robust_read_hedges_total"])/float64(b.N), "hedges_per_read")
				b.ReportMetric(float64(snap.Counters["robust_read_hedge_wins_total"])/float64(b.N), "hedge_wins_per_read")
			}
		})
	}
}
