package robust

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// TestRepairRacesConcurrentUpdate runs Repair concurrently with
// in-place Updates to disjoint regions of the same segment. The
// metadata write lock serializes the mutations, so whatever
// interleaving the scheduler picks, the final read must show every
// patch applied and fully redundant placement — and the whole dance
// must be clean under -race.
func TestRepairRacesConcurrentUpdate(t *testing.T) {
	c, stores := newTestClient(t, 5, Options{BlockBytes: 1 << 10, MaxServerShare: 0.3})
	ctx := context.Background()
	data := randData(16<<10, 41) // K=16
	if _, err := c.Write(ctx, "seg", data, nil); err != nil {
		t.Fatal(err)
	}

	// Knock some shares out so the repairs have real work.
	seg, err := c.meta.LookupSegment("seg")
	if err != nil {
		t.Fatal(err)
	}
	for i, held := range []([]int){seg.Placement["mem-00"], seg.Placement["mem-01"]} {
		if len(held) > 0 {
			if err := stores[i].Delete(ctx, "seg", held[0]); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Disjoint 512-byte patches at 2KB strides; applied in any order
	// they commute.
	want := append([]byte(nil), data...)
	patches := make([][]byte, 6)
	for p := range patches {
		patch := randData(512, int64(100+p))
		patches[p] = patch
		copy(want[p*2048:], patch)
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(patches)+3)
	for p, patch := range patches {
		wg.Add(1)
		go func(offset int64, patch []byte) {
			defer wg.Done()
			if err := c.Update(ctx, "seg", offset, patch); err != nil {
				errs <- err
			}
		}(int64(p*2048), patch)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Repair(ctx, "seg"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got, _, err := c.Read(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("concurrent repair/update lost a patch")
	}
	// Redundancy fully restored despite the interleaving.
	audit, err := c.Audit(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if audit.NeedsRepair() {
		t.Fatalf("post-race audit still needs repair: %+v", audit)
	}
}

// TestRepairIdempotent verifies a second repair pass over an
// already-healed segment is a no-op: nothing regenerated, nothing
// pruned, placement unchanged.
func TestRepairIdempotent(t *testing.T) {
	c, _ := newTestClient(t, 5, Options{BlockBytes: 4 << 10, MaxServerShare: 0.3})
	ctx := context.Background()
	data := randData(64<<10, 42)
	ws, err := c.Write(ctx, "seg", data, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := holdersByShare(ws.PerServer)[0]
	c.DetachStore(victim)

	first, err := c.Repair(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if first.Regenerated == 0 && first.Pruned == 0 {
		t.Fatalf("first repair did nothing: %+v (%s held %d shares)", first, victim, ws.PerServer[victim])
	}
	before, err := c.Stat("seg")
	if err != nil {
		t.Fatal(err)
	}

	second, err := c.Repair(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if second.Regenerated != 0 || second.Pruned != 0 || second.Promoted {
		t.Fatalf("second repair not idempotent: %+v", second)
	}
	after, err := c.Stat("seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Servers) != len(before.Servers) {
		t.Fatalf("placement changed: %v -> %v", before.Servers, after.Servers)
	}
	for addr, n := range before.Servers {
		if after.Servers[addr] != n {
			t.Fatalf("placement changed on %s: %d -> %d", addr, n, after.Servers[addr])
		}
	}
	got, _, err := c.Read(ctx, "seg")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after double repair: %v", err)
	}
}
