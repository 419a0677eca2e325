package robust

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestChaosStreamingWriteUnderFaults drives the pipelined streaming
// write through the paper's failure regime on real sockets: one
// server stalling half its puts, one resetting connections, one down
// for puts, and one killed outright mid-stream. The write must still
// commit every chunk, and the read-back must be intact — zero
// acked-write loss.
func TestChaosStreamingWriteUnderFaults(t *testing.T) {
	reg := obs.NewRegistry()
	client, servers := startChaosCluster(t, 8,
		Options{BlockBytes: 8 << 10, ChunkBytes: 64 << 10, MaxServerShare: 0.25, Obs: reg},
		transport.ClientOptions{Obs: reg})
	ctx := context.Background()
	data := randData(512<<10, 91) // 8 chunks, K=8 N=32 per chunk

	// The weather mid-write: a straggler, a flaky wire, a dead disk.
	servers[0].storeInj.SetConfig(faultinject.Config{StallProb: 0.5, Stall: 20 * time.Millisecond, Ops: []string{"put"}})
	servers[1].connInj.SetConfig(faultinject.Config{ResetProb: 0.1})
	// Failures carry a small latency so the healthy servers' puts land
	// before the failure budget burns out (the capStore reasoning).
	servers[2].storeInj.SetConfig(faultinject.Config{Latency: 2 * time.Millisecond, ErrProb: 1, Ops: []string{"put"}})
	// And one server dies for real, mid-chunk: connection refused for
	// every retry from then on.
	killer := time.AfterFunc(3*time.Millisecond, func() { servers[3].srv.Close() })
	defer killer.Stop()

	ws, err := client.WriteFrom(ctx, "storm", bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatalf("streaming write under faults: %v", err)
	}
	if ws.Committed < ws.N {
		t.Fatalf("committed %d < N %d", ws.Committed, ws.N)
	}

	// Calm the weather for the read so the assertion is about what the
	// write left behind, not read-path recovery.
	for _, cs := range servers[:3] {
		cs.storeInj.SetConfig(faultinject.Config{})
		cs.connInj.SetConfig(faultinject.Config{})
	}
	got, _, err := client.Read(ctx, "storm")
	if err != nil {
		t.Fatalf("read after chaotic stream: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("acked streaming write lost data")
	}
	seg, err := client.Meta().LookupSegment("storm")
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Chunks) != 8 {
		t.Fatalf("segment recorded %d chunks, want 8", len(seg.Chunks))
	}
	if ws.FailedPuts == 0 {
		t.Fatal("no puts failed: the faults never fired and the test proved nothing")
	}
	t.Logf("stream committed %d/%d blocks with %d re-routed puts, first commit %v",
		ws.Committed, ws.N, ws.FailedPuts, ws.FirstCommit)
}

// TestChaosStreamingWriteFailureLeavesNoOrphans: when the cluster
// cannot absorb the stream at all, the write must fail cleanly — no
// metadata, and no partial chunks left on the servers that did accept
// blocks before the failure verdict.
func TestChaosStreamingWriteFailureLeavesNoOrphans(t *testing.T) {
	client, servers := startChaosCluster(t, 4,
		Options{BlockBytes: 8 << 10, ChunkBytes: 64 << 10, MaxServerShare: 0.25},
		transport.ClientOptions{})
	ctx := context.Background()
	data := randData(256<<10, 92)

	// Three of four servers refuse every put: the per-server cap makes
	// N unreachable, so the stream must fail.
	down := faultinject.Config{Latency: 2 * time.Millisecond, ErrProb: 1, Ops: []string{"put"}}
	for _, cs := range servers[1:] {
		cs.storeInj.SetConfig(down)
	}

	_, err := client.WriteFrom(ctx, "doomed", bytes.NewReader(data), int64(len(data)), nil)
	if !errors.Is(err, ErrShortWrite) {
		t.Fatalf("err = %v, want ErrShortWrite", err)
	}
	if _, lerr := client.Meta().LookupSegment("doomed"); !errors.Is(lerr, metadata.ErrSegmentNotFound) {
		t.Fatalf("metadata survived a failed stream: %v", lerr)
	}
	// The healthy server accepted blocks before the verdict; the
	// failure path must have deleted them.
	for _, cs := range servers {
		cs.storeInj.SetConfig(faultinject.Config{})
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		orphans := 0
		for _, cs := range servers {
			if idx, _ := cs.mem.List(ctx, "doomed"); len(idx) > 0 {
				orphans += len(idx)
			}
		}
		if orphans == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d orphaned shares remain after failed stream", orphans)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
