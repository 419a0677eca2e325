package robust

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/obs"
)

// TestRejectedShareCounted is the regression test for the read
// accounting gap: a share the server returns but the decoder refuses
// (its index is outside the coding graph — corrupt placement
// metadata) was counted in neither FailedGets nor CorruptShares, so a
// read could lose shares with every stat claiming a clean run. It
// must surface in ReadStats.RejectedShares and the
// robust_read_rejected_shares_total counter.
func TestRejectedShareCounted(t *testing.T) {
	reg := obs.NewRegistry()
	c, stores := newTestClient(t, 1, Options{BlockBytes: 4 << 10, Obs: reg})
	ctx := context.Background()
	if _, err := c.Write(ctx, "obj", randData(8<<10, 11), nil); err != nil { // K=2
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("obj")
	if err != nil {
		t.Fatal(err)
	}
	addr := "mem-00"
	// Corrupt the placement: keep one good share (decode needs K=2, so
	// the read cannot complete and the rejected share can never race
	// with early cancellation) and add an index beyond the graph, with
	// a correctly sealed share stored under it so the GET succeeds and
	// the envelope verifies: only the decoder can refuse it.
	badIdx := seg.Coding.GraphN + 7
	if err := stores[0].Put(ctx, "obj", badIdx, sealShare("obj", badIdx, make([]byte, 4<<10))); err != nil {
		t.Fatal(err)
	}
	seg.Placement = map[string][]int{addr: {seg.Placement[addr][0], badIdx}}
	if err := c.meta.UpdateSegment(seg); err != nil {
		t.Fatal(err)
	}

	_, stats, err := c.Read(ctx, "obj")
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Read = %v, want ErrUnrecoverable (only 1 of K=2 usable shares)", err)
	}
	if stats.RejectedShares != 1 {
		t.Errorf("RejectedShares = %d, want 1", stats.RejectedShares)
	}
	if stats.FailedGets != 0 || stats.CorruptShares != 0 {
		t.Errorf("rejected share leaked into other stats: %+v", stats)
	}
	if got := reg.Snapshot().Counters["robust_read_rejected_shares_total"]; got != 1 {
		t.Errorf("robust_read_rejected_shares_total = %d, want 1", got)
	}
}

// barrierStore blocks every DeleteBatch until all expected servers
// have one in flight: the test hangs (and times out) unless
// Client.Delete really fans out in parallel.
type barrierStore struct {
	*blockstore.MemStore
	calls   *atomic.Int64
	arrived *sync.WaitGroup
	allIn   chan struct{}
}

func (b barrierStore) DeleteBatch(ctx context.Context, segment string, indices []int) []error {
	b.calls.Add(1)
	b.arrived.Done()
	select {
	case <-b.allIn:
	case <-time.After(10 * time.Second):
		errs := make([]error, len(indices))
		for i := range errs {
			errs[i] = fmt.Errorf("robust test: DeleteBatch never ran in parallel")
		}
		return errs
	}
	return b.MemStore.DeleteBatch(ctx, segment, indices)
}

// TestDeleteParallelBatched proves Delete issues one batched wipe per
// server, concurrently across servers.
func TestDeleteParallelBatched(t *testing.T) {
	const servers = 4
	meta := metadata.NewService()
	// Cap each server's share so every server must hold part of the
	// segment (4 x 0.3 barely covers N): the delete must fan out to
	// all of them.
	c, err := NewClient(meta, Options{BlockBytes: 4 << 10, MaxServerShare: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	var arrived sync.WaitGroup
	allIn := make(chan struct{})
	mems := make([]*blockstore.MemStore, servers)
	for i := range mems {
		mems[i] = blockstore.NewMemStore()
		st := barrierStore{MemStore: mems[i], calls: &calls, arrived: &arrived, allIn: allIn}
		if err := c.AttachStore(fmt.Sprintf("s%d", i), st); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, err := c.Write(ctx, "obj", randData(64<<10, 12), nil); err != nil {
		t.Fatal(err)
	}
	seg, err := meta.LookupSegment("obj")
	if err != nil {
		t.Fatal(err)
	}
	for addr, idx := range seg.Placement {
		if len(idx) < 2 {
			t.Fatalf("server %s holds %d blocks; share cap should force >= 2 everywhere", addr, len(idx))
		}
	}
	if len(seg.Placement) != servers {
		t.Fatalf("placement covers %d of %d servers", len(seg.Placement), servers)
	}
	arrived.Add(servers)
	go func() { arrived.Wait(); close(allIn) }()
	if err := c.Delete(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != servers {
		t.Errorf("DeleteBatch calls = %d, want exactly %d (one batch per server)", got, servers)
	}
	for i, m := range mems {
		if idx, err := m.List(ctx, "obj"); err != nil || len(idx) != 0 {
			t.Errorf("server %d still holds %d blocks (err %v)", i, len(idx), err)
		}
	}
	if _, err := c.Stat("obj"); !errors.Is(err, metadata.ErrSegmentNotFound) {
		t.Errorf("Stat after delete = %v, want ErrSegmentNotFound", err)
	}
}

// TestDeletePartialFailureAggregates checks that a dead server does
// not abort the wipe: live servers are cleared, metadata is dropped,
// and the dead server's failure comes back aggregated.
func TestDeletePartialFailureAggregates(t *testing.T) {
	c, stores := newTestClient(t, 3, Options{BlockBytes: 4 << 10, MaxServerShare: 0.4})
	ctx := context.Background()
	if _, err := c.Write(ctx, "obj", randData(64<<10, 13), nil); err != nil {
		t.Fatal(err)
	}
	stores[0].Close()
	err := c.Delete(ctx, "obj")
	if !errors.Is(err, blockstore.ErrClosed) {
		t.Fatalf("Delete over a closed server = %v, want ErrClosed inside the join", err)
	}
	for i, m := range stores[1:] {
		if idx, lerr := m.List(ctx, "obj"); lerr != nil || len(idx) != 0 {
			t.Errorf("live server %d still holds %d blocks (err %v)", i+1, len(idx), lerr)
		}
	}
	if _, serr := c.Stat("obj"); !errors.Is(serr, metadata.ErrSegmentNotFound) {
		t.Errorf("metadata survived partial-failure delete: %v", serr)
	}
}

// TestOneBlockStoreRoundTrip pins the one-block-per-call path: a store
// without the blockstore.Batcher methods gets write runs and read
// windows of one block, and the client must round-trip through it
// unchanged.
func TestOneBlockStoreRoundTrip(t *testing.T) {
	meta := metadata.NewService()
	c, err := NewClient(meta, Options{BlockBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		addr := fmt.Sprintf("plain-%02d", i)
		// Embedding the interface hides the MemStore's Batcher methods.
		if err := c.AttachStore(addr, struct{ blockstore.Store }{blockstore.NewMemStore()}); err != nil {
			t.Fatal(err)
		}
		if a, _ := c.attachment(addr); a.run != 1 {
			t.Fatalf("%s: run %d, want 1 for a store that moves one block per call", addr, a.run)
		}
		meta.RegisterServer(metadata.Server{Addr: addr})
	}
	ctx := context.Background()
	data := randData(120<<10, 14)
	if _, err := c.Write(ctx, "obj", data, nil); err != nil {
		t.Fatal(err)
	}
	got, stats, err := c.Read(ctx, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data differs through one-block stores")
	}
	if stats.FailedGets != 0 || stats.RejectedShares != 0 {
		t.Fatalf("one-block read not clean: %+v", stats)
	}
}

// errDeleteRefused is what refuseDeletes answers every delete with.
var errDeleteRefused = errors.New("robust test: delete refused")

// refuseDeletes is a store that keeps its blocks and fails every
// delete.
type refuseDeletes struct{ *blockstore.MemStore }

func (r refuseDeletes) Delete(context.Context, string, int) error { return errDeleteRefused }

func (r refuseDeletes) DeleteBatch(_ context.Context, _ string, indices []int) []error {
	errs := make([]error, len(indices))
	for i := range errs {
		errs[i] = errDeleteRefused
	}
	return errs
}

// TestDeleteJoinsDetachedAndFailingHolders is the regression test for
// a data race in Delete: a detached holder's error was appended without
// the lock that guarded the appends of delete goroutines already
// running for other holders. Both failures must come back joined, the
// healthy holder must be wiped and the metadata dropped. Several
// segments make a placement iterated in each order likely, so the race
// detector sees the overlap.
func TestDeleteJoinsDetachedAndFailingHolders(t *testing.T) {
	meta := metadata.NewService()
	c, err := NewClient(meta, Options{BlockBytes: 1 << 10, MaxServerShare: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	ok := blockstore.NewMemStore()
	for addr, st := range map[string]blockstore.Store{
		"ok": ok, "refuse": refuseDeletes{blockstore.NewMemStore()}, "gone": blockstore.NewMemStore(),
	} {
		if err := c.AttachStore(addr, st); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	const segments = 12
	for i := 0; i < segments; i++ {
		if _, err := c.Write(ctx, fmt.Sprintf("seg-%d", i), randData(4<<10, int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.DetachStore("gone")
	for i := 0; i < segments; i++ {
		name := fmt.Sprintf("seg-%d", i)
		err := c.Delete(ctx, name)
		if !errors.Is(err, errDeleteRefused) || !strings.Contains(fmt.Sprint(err), `"gone" unreachable`) {
			t.Fatalf("Delete(%s) = %v, want the refused deletes and the detached holder joined", name, err)
		}
		if idx, lerr := ok.List(ctx, name); lerr != nil || len(idx) != 0 {
			t.Fatalf("healthy holder kept %d blocks of %s (err %v)", len(idx), name, lerr)
		}
		if _, serr := c.Stat(name); !errors.Is(serr, metadata.ErrSegmentNotFound) {
			t.Fatalf("metadata of %s survived Delete: %v", name, serr)
		}
	}
}
