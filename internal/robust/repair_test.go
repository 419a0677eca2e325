package robust

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/blockstore"
)

func TestHealthOnIntactSegment(t *testing.T) {
	c, _ := newTestClient(t, 6, Options{BlockBytes: 4 << 10, MaxServerShare: 0.25})
	ctx := context.Background()
	data := randData(128<<10, 20)
	ws, err := c.Write(ctx, "h", data, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Health(ctx, "h")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Decodable {
		t.Fatal("fresh segment not decodable")
	}
	if rep.Missing != 0 || rep.Reachable != ws.Committed {
		t.Fatalf("health = %+v, committed %d", rep, ws.Committed)
	}
	if len(rep.DeadAddrs) != 0 {
		t.Fatalf("dead addrs on healthy cluster: %v", rep.DeadAddrs)
	}
}

func TestHealthAfterLoss(t *testing.T) {
	c, _ := newTestClient(t, 6, Options{BlockBytes: 4 << 10, MaxServerShare: 0.25})
	ctx := context.Background()
	data := randData(128<<10, 21)
	ws, err := c.Write(ctx, "h2", data, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := holdersByShare(ws.PerServer)[0]
	c.DetachStore(victim)
	rep, err := c.Health(ctx, "h2")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Missing != ws.PerServer[victim] {
		t.Fatalf("missing = %d, %s held %d", rep.Missing, victim, ws.PerServer[victim])
	}
	if len(rep.DeadAddrs) != 1 || rep.DeadAddrs[0] != victim {
		t.Fatalf("dead addrs = %v, want [%s]", rep.DeadAddrs, victim)
	}
	if !rep.Decodable {
		t.Fatal("segment should survive one server loss at D=3")
	}
}

func TestRepairRestoresRedundancy(t *testing.T) {
	c, stores := newTestClient(t, 6, Options{BlockBytes: 4 << 10, MaxServerShare: 0.25})
	ctx := context.Background()
	data := randData(128<<10, 22)
	ws, err := c.Write(ctx, "r", data, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = stores
	// Lose the two biggest holders.
	lost := holdersByShare(ws.PerServer)[:2]
	c.DetachStore(lost[0])
	c.DetachStore(lost[1])
	before, _ := c.Health(ctx, "r")
	if before.Missing == 0 {
		t.Fatal("test needs actual loss")
	}
	rst, err := c.Repair(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	if rst.Regenerated != before.Missing {
		t.Fatalf("regenerated %d, missing was %d", rst.Regenerated, before.Missing)
	}
	after, err := c.Health(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	if after.Missing != 0 || len(after.DeadAddrs) != 0 {
		t.Fatalf("post-repair health = %+v", after)
	}
	if after.Reachable < ws.N {
		t.Fatalf("post-repair reachable %d < N %d", after.Reachable, ws.N)
	}
	// Data still reads correctly, and a version bump happened.
	got, _, err := c.Read(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after repair")
	}
	info, _ := c.Stat("r")
	if info.Version != 2 {
		t.Fatalf("version = %d, want 2", info.Version)
	}
	// Now lose the *new* biggest holder and read again — the repaired
	// redundancy must carry it.
	biggest, max1 := "", -1
	for addr, n := range info.Servers {
		if n > max1 {
			biggest, max1 = addr, n
		}
	}
	c.DetachStore(biggest)
	got, _, err = c.Read(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after second loss")
	}
}

func TestRepairFailsWhenUnrecoverable(t *testing.T) {
	c, _ := newTestClient(t, 6, Options{
		BlockBytes: 4 << 10, Redundancy: 1, MaxServerShare: 0.2,
	})
	ctx := context.Background()
	data := randData(128<<10, 23)
	if _, err := c.Write(ctx, "gone", data, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.DetachStore(fmt.Sprintf("mem-%02d", i))
	}
	if _, err := c.Repair(ctx, "gone"); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("repair of unrecoverable segment = %v", err)
	}
}

func TestRepairAfterBlockCorruptionLoss(t *testing.T) {
	// Blocks deleted out from under the client (bit rot, operator
	// error) are detected by Health and restored by Repair.
	c, stores := newTestClient(t, 5, Options{BlockBytes: 4 << 10, MaxServerShare: 0.3})
	ctx := context.Background()
	data := randData(96<<10, 24)
	if _, err := c.Write(ctx, "rot", data, nil); err != nil {
		t.Fatal(err)
	}
	// Delete a few blocks directly from a store that actually holds
	// some (the instant in-memory servers make placement uneven).
	deleted := 0
	for _, s := range stores {
		idx, _ := s.List(ctx, "rot")
		if len(idx) < 2 {
			continue
		}
		for _, i := range idx[:len(idx)/2] {
			s.Delete(ctx, "rot", i)
			deleted++
		}
		break
	}
	if deleted == 0 {
		t.Fatal("no store held enough blocks to corrupt")
	}
	rep, _ := c.Health(ctx, "rot")
	if rep.Missing == 0 {
		t.Fatal("deleted blocks not detected")
	}
	if _, err := c.Repair(ctx, "rot"); err != nil {
		t.Fatal(err)
	}
	after, _ := c.Health(ctx, "rot")
	if after.Missing != 0 {
		t.Fatalf("still missing %d after repair", after.Missing)
	}
	got, _, err := c.Read(ctx, "rot")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after rot repair")
	}
}

func TestWriteShareCapBoundsWorstCaseLoss(t *testing.T) {
	// Regression: the per-server share cap must be a fraction of the
	// commit target N, not of the larger generation budget graphN.
	// Under -race-like skewed scheduling a few fast servers run to
	// their cap before the rest start, so a graphN-based cap let two
	// of six servers absorb ~60% of a MaxServerShare=0.25 segment and
	// their loss made the data unrecoverable.
	c, _ := newTestClient(t, 6, Options{BlockBytes: 4 << 10, MaxServerShare: 0.25})
	ctx := context.Background()
	data := randData(128<<10, 40)
	ws, err := c.Write(ctx, "cap", data, nil)
	if err != nil {
		t.Fatal(err)
	}
	cap := (ws.N + 3) / 4 // ceil(0.25 * N)
	for addr, got := range ws.PerServer {
		if got > cap {
			t.Fatalf("server %s holds %d blocks, share cap is %d (N=%d)", addr, got, cap, ws.N)
		}
	}
	// Losing the two biggest holders must leave a decodable segment.
	type holder struct {
		addr string
		n    int
	}
	var holders []holder
	for addr, n := range ws.PerServer {
		holders = append(holders, holder{addr, n})
	}
	sort.Slice(holders, func(i, j int) bool { return holders[i].n > holders[j].n })
	c.DetachStore(holders[0].addr)
	c.DetachStore(holders[1].addr)
	got, _, err := c.Read(ctx, "cap")
	if err != nil {
		t.Fatalf("read after losing two biggest holders (%d+%d of %d blocks): %v",
			holders[0].n, holders[1].n, ws.Committed, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after two-server loss")
	}
}

func TestRepairRoundsWithConcurrentReads(t *testing.T) {
	// Regression for the scheduling-dependent repair failure: hammer
	// the repair path through repeated loss/repair rounds while
	// concurrent readers keep the store and metadata paths busy, the
	// interleaving the race detector's scheduler provokes.
	c, _ := newTestClient(t, 6, Options{BlockBytes: 4 << 10, MaxServerShare: 0.25})
	ctx := context.Background()
	data := randData(128<<10, 41)
	if _, err := c.Write(ctx, "churn", data, nil); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	readErr := make(chan error, 1)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, _, err := c.Read(ctx, "churn")
				if err != nil {
					select {
					case readErr <- err:
					default:
					}
					return
				}
				if !bytes.Equal(got, data) {
					select {
					case readErr <- fmt.Errorf("concurrent read returned wrong data"):
					default:
					}
					return
				}
			}
		}()
	}

	for round := 0; round < 4; round++ {
		victim := fmt.Sprintf("mem-%02d", round%6)
		c.DetachStore(victim)
		if _, err := c.Repair(ctx, "churn"); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("repair round %d after losing %s: %v", round, victim, err)
		}
		// The victim rejoins empty, like a wiped replacement disk.
		if err := c.AttachStore(victim, blockstore.NewMemStore()); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatalf("concurrent reader: %v", err)
	default:
	}

	got, _, err := c.Read(ctx, "churn")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after repair churn")
	}
}

func TestHealthMissingSegment(t *testing.T) {
	c, _ := newTestClient(t, 2, Options{})
	if _, err := c.Health(context.Background(), "ghost"); err == nil {
		t.Fatal("health of missing segment succeeded")
	}
	if _, err := c.Repair(context.Background(), "ghost"); err == nil {
		t.Fatal("repair of missing segment succeeded")
	}
}

// TestRepairPromotesDegradedSegment walks the graceful-degradation
// life cycle: a write that can only reach the degraded floor commits
// (marked Degraded), a later Repair — once capacity is back — tops the
// placement up to the full target N with fresh graph indices and
// clears the mark.
func TestRepairPromotesDegradedSegment(t *testing.T) {
	ctx := context.Background()
	data := randData(4096, 40) // K=4, N=16, floor=7
	// The stores take only shares 0–7, which decode for "deg".
	c, stores := prefixClient(t, 3, 8, Options{DegradedWrites: true})
	ws, err := c.Write(ctx, "deg", data, nil)
	if !errors.Is(err, ErrDegradedWrite) {
		t.Fatalf("Write error = %v, want ErrDegradedWrite", err)
	}
	if ws.Committed >= ws.N {
		t.Fatalf("Committed = %d, not a degraded commit", ws.Committed)
	}

	// Capacity returns (servers recovered / new disks attached).
	for _, s := range stores {
		s.bound.Store(1 << 20)
	}

	rs, err := c.Repair(ctx, "deg")
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !rs.Promoted {
		t.Fatal("RepairStats.Promoted = false, want true")
	}
	if rs.Regenerated < ws.N-ws.Committed {
		t.Fatalf("Regenerated = %d, need at least %d to reach N", rs.Regenerated, ws.N-ws.Committed)
	}

	seg, err := c.Meta().LookupSegment("deg")
	if err != nil {
		t.Fatal(err)
	}
	if seg.Degraded {
		t.Fatal("segment still marked Degraded after promotion")
	}
	total := 0
	for _, indices := range seg.Placement {
		total += len(indices)
	}
	if total < ws.N {
		t.Fatalf("placement holds %d blocks after promotion, want >= N=%d", total, ws.N)
	}

	got, _, err := c.Read(ctx, "deg")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("promoted segment decoded to wrong data")
	}

	// A second repair on the now-healthy segment is a no-op promotion.
	rs2, err := c.Repair(ctx, "deg")
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Promoted {
		t.Fatal("repair of a full segment reported a promotion")
	}
}
