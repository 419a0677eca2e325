package robust

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
)

// newTestClient builds a client over n in-memory stores.
func newTestClient(t *testing.T, n int, opts Options) (*Client, []*blockstore.MemStore) {
	t.Helper()
	meta := metadata.NewService()
	c, err := NewClient(meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*blockstore.MemStore, n)
	for i := range stores {
		stores[i] = blockstore.NewMemStore()
		addr := fmt.Sprintf("mem-%02d", i)
		if err := c.AttachStore(addr, stores[i]); err != nil {
			t.Fatal(err)
		}
		meta.RegisterServer(metadata.Server{Addr: addr})
	}
	return c, stores
}

// holdersByShare lists the servers in a per-server share count, most
// shares first and ties by address. Rateless placement decides by
// goroutine timing which servers end up holding shares, so loss tests
// pick their victims from the placement that resulted.
func holdersByShare(counts map[string]int) []string {
	var out []string
	for addr, n := range counts {
		if n > 0 {
			out = append(out, addr)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if counts[out[i]] != counts[out[j]] {
			return counts[out[i]] > counts[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

func randData(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	c, _ := newTestClient(t, 8, Options{BlockBytes: 4 << 10})
	ctx := context.Background()
	data := randData(300<<10, 1) // 300 KB -> K=75 blocks
	ws, err := c.Write(ctx, "obj", data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Committed < ws.N {
		t.Fatalf("committed %d < N %d", ws.Committed, ws.N)
	}
	got, rs, err := c.Read(ctx, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data differs")
	}
	if rs.Received < rs.K {
		t.Fatalf("received %d < K %d: impossible", rs.Received, rs.K)
	}
	if rs.Reception < 0 || rs.Reception > 1.5 {
		t.Fatalf("reception overhead %v implausible", rs.Reception)
	}
}

func TestSpikeFloorRecordedAndLegacyGraphsRead(t *testing.T) {
	c, stores := newTestClient(t, 4, Options{BlockBytes: 1 << 10})
	ctx := context.Background()
	data := randData(32<<10, 3) // K=32: Luby's spike would sit on degree 1
	if _, err := c.Write(ctx, "new", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("new")
	if err != nil {
		t.Fatal(err)
	}
	if seg.Coding.Algorithm != algLTSpike3 {
		t.Fatalf("new segment records algorithm %q, want %q", seg.Coding.Algorithm, algLTSpike3)
	}

	// A segment written before the floor existed records "lt" and must
	// keep decoding against Luby's graph, not the capped one.
	legacy := seg.Coding
	legacy.Algorithm = algLT
	legacy.GraphSeed = 77
	lg, err := c.cachedGraph(legacy)
	if err != nil {
		t.Fatal(err)
	}
	capped := legacy
	capped.Algorithm = algLTSpike3
	cg, err := c.cachedGraph(capped)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range lg.Neighbors {
		same = same && fmt.Sprint(lg.Neighbors[i]) == fmt.Sprint(cg.Neighbors[i])
	}
	if same {
		t.Fatal("the spike floor did not change the K=32 graph; the legacy case proves nothing")
	}
	blocks := splitBlocks(data, legacy.BlockBytes)
	placement := map[string][]int{}
	for i := 0; i < legacy.N; i++ {
		addr := fmt.Sprintf("mem-%02d", i%len(stores))
		if err := stores[i%len(stores)].Put(ctx, "old", i, sealShare(lg.EncodeBlock(i, blocks))); err != nil {
			t.Fatal(err)
		}
		placement[addr] = append(placement[addr], i)
	}
	if err := c.meta.CreateSegment(metadata.Segment{
		Name: "old", Size: int64(len(data)), Coding: legacy, Placement: placement, Version: 1,
	}); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Read(ctx, "old")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("legacy segment read back wrong data")
	}
}

func TestUnknownCodingAlgorithmRefused(t *testing.T) {
	// A segment coded with an algorithm this client does not know must
	// be refused by every path that rebuilds its graph: decoding it, or
	// regenerating its shares, against a guessed graph returns wrong
	// bytes or stores bad shares under valid checksums.
	c, stores := newTestClient(t, 4, Options{BlockBytes: 1 << 10})
	ctx := context.Background()
	if _, err := c.Write(ctx, "obj", randData(32<<10, 4), nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("obj")
	if err != nil {
		t.Fatal(err)
	}
	seg.Coding.Algorithm = "lt-future"
	if err := c.meta.UpdateSegment(seg); err != nil {
		t.Fatal(err)
	}
	// Lose one share, so Repair has something to regenerate.
	want := make([]int, len(stores))
	for i := range stores {
		want[i] = len(seg.Placement[fmt.Sprintf("mem-%02d", i)])
	}
	victim := 0
	for want[victim] == 0 {
		victim++
	}
	if err := stores[victim].Delete(ctx, "obj", seg.Placement[fmt.Sprintf("mem-%02d", victim)][0]); err != nil {
		t.Fatal(err)
	}
	want[victim]--
	if _, _, err := c.Read(ctx, "obj"); err == nil || !strings.Contains(err.Error(), "unknown coding algorithm") {
		t.Fatalf("Read = %v, want an unknown-algorithm error", err)
	}
	if _, err := c.Health(ctx, "obj"); err == nil || !strings.Contains(err.Error(), "unknown coding algorithm") {
		t.Fatalf("Health = %v, want an unknown-algorithm error", err)
	}
	if _, err := c.Repair(ctx, "obj"); err == nil || !strings.Contains(err.Error(), "unknown coding algorithm") {
		t.Fatalf("Repair = %v, want an unknown-algorithm error", err)
	}
	for i, st := range stores {
		held, err := st.List(ctx, "obj")
		if err != nil {
			t.Fatal(err)
		}
		if len(held) != want[i] {
			t.Fatalf("mem-%02d holds %d shares after the refused repair, want %d", i, len(held), want[i])
		}
	}
}

func TestDataSmallerThanBlock(t *testing.T) {
	c, _ := newTestClient(t, 3, Options{BlockBytes: 1 << 10, Redundancy: 4})
	ctx := context.Background()
	data := []byte("tiny payload")
	if _, err := c.Write(ctx, "tiny", data, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Read(ctx, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestNonBlockMultipleSizes(t *testing.T) {
	c, _ := newTestClient(t, 4, Options{BlockBytes: 4 << 10})
	ctx := context.Background()
	for _, size := range []int{1, 4095, 4096, 4097, 100_000} {
		name := fmt.Sprintf("obj-%d", size)
		data := randData(size, int64(size))
		if _, err := c.Write(ctx, name, data, nil); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		got, _, err := c.Read(ctx, name)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: data mismatch", size)
		}
	}
}

func TestWriteValidation(t *testing.T) {
	c, _ := newTestClient(t, 2, Options{})
	ctx := context.Background()
	if _, err := c.Write(ctx, "", []byte("x"), nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.Write(ctx, "x", nil, nil); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := c.Write(ctx, "x", []byte("d"), []string{"ghost"}); err == nil {
		t.Fatal("unknown server accepted")
	}
	meta := metadata.NewService()
	empty, _ := NewClient(meta, Options{})
	if _, err := empty.Write(ctx, "x", []byte("d"), nil); !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v, want ErrNoServers", err)
	}
}

func TestDuplicateWriteRejected(t *testing.T) {
	c, _ := newTestClient(t, 3, Options{BlockBytes: 1 << 10})
	ctx := context.Background()
	data := randData(10<<10, 2)
	if _, err := c.Write(ctx, "dup", data, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(ctx, "dup", data, nil); !errors.Is(err, metadata.ErrSegmentExists) {
		t.Fatalf("second write = %v", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	meta := metadata.NewService()
	if _, err := NewClient(meta, Options{Redundancy: 0.1}); err == nil {
		t.Fatal("tiny redundancy accepted")
	}
	if _, err := NewClient(meta, Options{LTDelta: 7}); err == nil {
		t.Fatal("bad delta accepted")
	}
	if _, err := NewClient(meta, Options{BlockBytes: -1}); err == nil {
		t.Fatal("negative block size accepted")
	}
}

func TestReadMissingSegment(t *testing.T) {
	c, _ := newTestClient(t, 2, Options{})
	if _, _, err := c.Read(context.Background(), "ghost"); !errors.Is(err, metadata.ErrSegmentNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadSurvivesServerLoss(t *testing.T) {
	// The architecture's raison d'être: with D=3, losing a couple of
	// servers entirely must not hurt the read. MaxServerShare keeps
	// the rateless write from concentrating blocks when the (instant,
	// in-memory) servers are all equally fast.
	c, _ := newTestClient(t, 8, Options{
		BlockBytes: 4 << 10, Redundancy: 3, MaxServerShare: 0.2,
	})
	ctx := context.Background()
	data := randData(256<<10, 3)
	if _, err := c.Write(ctx, "resilient", data, nil); err != nil {
		t.Fatal(err)
	}
	c.DetachStore("mem-00")
	c.DetachStore("mem-01")
	got, _, err := c.Read(ctx, "resilient")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after server loss")
	}
}

func TestReadSurvivesFlakyServers(t *testing.T) {
	meta := metadata.NewService()
	c, err := NewClient(meta, Options{BlockBytes: 4 << 10, Redundancy: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Half the servers fail 30% of requests.
	for i := 0; i < 6; i++ {
		var s blockstore.Store = blockstore.NewMemStore()
		if i%2 == 0 {
			s = blockstore.NewSlowStore(s, blockstore.SlowProfile{FailureRate: 0.3}, int64(i))
		}
		c.AttachStore(fmt.Sprintf("s%d", i), s)
	}
	ctx := context.Background()
	data := randData(200<<10, 4)
	if _, err := c.Write(ctx, "flaky", data, nil); err != nil {
		t.Fatal(err)
	}
	got, rs, err := c.Read(ctx, "flaky")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch with flaky servers")
	}
	if rs.FailedGets == 0 {
		t.Log("note: no injected failures observed (possible but unlikely)")
	}
}

func TestUnrecoverableAfterMassiveLoss(t *testing.T) {
	c, _ := newTestClient(t, 6, Options{
		BlockBytes: 4 << 10, Redundancy: 1, MaxServerShare: 0.2,
	})
	ctx := context.Background()
	data := randData(128<<10, 5)
	if _, err := c.Write(ctx, "doomed", data, nil); err != nil {
		t.Fatal(err)
	}
	// Drop 5 of 6 servers: with D=1 that leaves ~K/3 blocks.
	for i := 0; i < 5; i++ {
		c.DetachStore(fmt.Sprintf("mem-%02d", i))
	}
	if _, _, err := c.Read(ctx, "doomed"); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestSpeculativeReadCancelsStragglers(t *testing.T) {
	// One pathologically slow server must not slow the read down: the
	// decode completes from the fast servers and cancels the rest.
	meta := metadata.NewService()
	c, err := NewClient(meta, Options{BlockBytes: 4 << 10, Redundancy: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		var s blockstore.Store = blockstore.NewMemStore()
		if i == 0 {
			s = blockstore.NewSlowStore(s, blockstore.SlowProfile{BaseLatency: 10 * time.Second}, 1)
		}
		c.AttachStore(fmt.Sprintf("s%d", i), s)
	}
	ctx := context.Background()
	data := randData(128<<10, 6)
	// Write without the slow server so the write is fast; its absence
	// in placement also exercises partial placement reads.
	var fast []string
	for i := 1; i < 6; i++ {
		fast = append(fast, fmt.Sprintf("s%d", i))
	}
	if _, err := c.Write(ctx, "fastread", data, fast); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, _, err := c.Read(ctx, "fastread")
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("read took %v; stragglers not canceled", elapsed)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
}

func TestHeterogeneousServersUnbalancedPlacement(t *testing.T) {
	// Rateless writes must put more blocks on faster servers.
	meta := metadata.NewService()
	c, err := NewClient(meta, Options{BlockBytes: 4 << 10, Redundancy: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		lat := time.Duration(1+i*12) * time.Millisecond
		s := blockstore.NewSlowStore(blockstore.NewMemStore(), blockstore.SlowProfile{BaseLatency: lat}, int64(i))
		c.AttachStore(fmt.Sprintf("s%d", i), s)
	}
	ctx := context.Background()
	data := randData(256<<10, 7)
	ws, err := c.Write(ctx, "skewed", data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws.PerServer["s0"] <= ws.PerServer["s3"] {
		t.Fatalf("fast server got %d blocks, slow got %d; expected skew toward fast",
			ws.PerServer["s0"], ws.PerServer["s3"])
	}
	got, _, err := c.Read(ctx, "skewed")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
}

func TestUpdateInPlace(t *testing.T) {
	c, _ := newTestClient(t, 6, Options{BlockBytes: 4 << 10, Redundancy: 3})
	ctx := context.Background()
	data := randData(128<<10, 8)
	if _, err := c.Write(ctx, "mut", data, nil); err != nil {
		t.Fatal(err)
	}
	patch := []byte("THE-NEW-CONTENT!")
	off := int64(40_000)
	if err := c.Update(ctx, "mut", off, patch); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	copy(want[off:], patch)
	got, _, err := c.Read(ctx, "mut")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("update not reflected in read")
	}
	// Version bumped.
	info, err := c.Stat("mut")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("version = %d, want 2", info.Version)
	}
}

func TestUpdateBounds(t *testing.T) {
	c, _ := newTestClient(t, 3, Options{BlockBytes: 1 << 10})
	ctx := context.Background()
	data := randData(10<<10, 9)
	c.Write(ctx, "b", data, nil)
	if err := c.Update(ctx, "b", int64(len(data)-2), []byte("xxxx")); err == nil {
		t.Fatal("out-of-bounds update accepted")
	}
	if err := c.Update(ctx, "b", -1, []byte("x")); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := c.Update(ctx, "b", 0, nil); err != nil {
		t.Fatal("empty patch should be a no-op")
	}
}

func TestUpdateTouchesFewBlocks(t *testing.T) {
	// The §4.3.4 locality claim: a one-block update rewrites only the
	// coded blocks referencing it — a small fraction of N.
	c, _ := newTestClient(t, 6, Options{BlockBytes: 1 << 10, Redundancy: 3})
	ctx := context.Background()
	data := randData(128<<10, 10) // K=128, N=512
	if _, err := c.Write(ctx, "loc", data, nil); err != nil {
		t.Fatal(err)
	}
	affected, err := c.AffectedBlocks("loc", 0, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := c.Stat("loc")
	if affected == 0 {
		t.Fatal("no blocks affected: impossible")
	}
	if affected > info.N/4 {
		t.Fatalf("one-block update touches %d of %d coded blocks; expected locality", affected, info.N)
	}
}

func TestDeleteRemovesBlocksAndMetadata(t *testing.T) {
	c, stores := newTestClient(t, 4, Options{BlockBytes: 4 << 10})
	ctx := context.Background()
	data := randData(64<<10, 11)
	if _, err := c.Write(ctx, "gone", data, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(ctx, "gone"); !errors.Is(err, metadata.ErrSegmentNotFound) {
		t.Fatalf("read after delete = %v", err)
	}
	for i, s := range stores {
		if idx, _ := s.List(ctx, "gone"); len(idx) != 0 {
			t.Fatalf("store %d still holds %d blocks", i, len(idx))
		}
	}
}

func TestWriteContextCancellation(t *testing.T) {
	meta := metadata.NewService()
	c, _ := NewClient(meta, Options{BlockBytes: 4 << 10})
	for i := 0; i < 3; i++ {
		s := blockstore.NewSlowStore(blockstore.NewMemStore(),
			blockstore.SlowProfile{BaseLatency: time.Second}, int64(i))
		c.AttachStore(fmt.Sprintf("s%d", i), s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Write(ctx, "slow", randData(1<<20, 12), nil)
	if err == nil {
		t.Fatal("canceled write succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("write cancellation too slow")
	}
}

func TestStat(t *testing.T) {
	c, _ := newTestClient(t, 4, Options{BlockBytes: 4 << 10, Redundancy: 2})
	ctx := context.Background()
	data := randData(100<<10, 13)
	if _, err := c.Write(ctx, "st", data, nil); err != nil {
		t.Fatal(err)
	}
	info, err := c.Stat("st")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len(data)) || info.K != 25 || info.N != 75 {
		t.Fatalf("stat = %+v", info)
	}
	total := 0
	for _, n := range info.Servers {
		total += n
	}
	if total < info.N {
		t.Fatalf("placement holds %d < N=%d", total, info.N)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	c, _ := newTestClient(t, 6, Options{BlockBytes: 4 << 10})
	ctx := context.Background()
	// Seed several objects.
	payloads := map[string][]byte{}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("conc-%d", i)
		payloads[name] = randData(64<<10, int64(100+i))
		if _, err := c.Write(ctx, name, payloads[name], nil); err != nil {
			t.Fatal(err)
		}
	}
	errCh := make(chan error, 32)
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		var inner [16]chan struct{}
		for g := range inner {
			inner[g] = make(chan struct{})
			g := g
			go func() {
				defer close(inner[g])
				name := fmt.Sprintf("conc-%d", g%4)
				got, _, err := c.Read(ctx, name)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, payloads[name]) {
					errCh <- fmt.Errorf("%s mismatch", name)
				}
			}()
		}
		for g := range inner {
			<-inner[g]
		}
	}()
	<-doneCh
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
