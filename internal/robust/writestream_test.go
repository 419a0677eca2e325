package robust

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/transport"
)

// streamOptions is the small chunked geometry most tests here use:
// 2 KB blocks, 8 KB chunks -> K=4 per full chunk.
func streamOptions() Options {
	return Options{BlockBytes: 2 << 10, ChunkBytes: 8 << 10}
}

func TestWriteFromChunkedRoundTrip(t *testing.T) {
	c, _ := newTestClient(t, 6, streamOptions())
	ctx := context.Background()
	data := randData(50<<10+123, 9) // 6 full 8 KB chunks + a 2171-byte tail

	ws, err := c.WriteFrom(ctx, "stream", bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Committed < ws.N {
		t.Fatalf("committed %d < N %d", ws.Committed, ws.N)
	}
	if ws.FirstCommit <= 0 || ws.FirstCommit > ws.Duration {
		t.Fatalf("first-commit latency %v outside (0, %v]", ws.FirstCommit, ws.Duration)
	}

	seg, err := c.meta.LookupSegment("stream")
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Chunks) != 7 {
		t.Fatalf("chunks = %d, want 7", len(seg.Chunks))
	}
	// The stride is a full chunk's graph: N = (1+3)·4 plus 4 slack
	// blocks for each of the 6 servers.
	if seg.ChunkStride != 40 || seg.Chunks[0].GraphN != seg.ChunkStride {
		t.Fatalf("chunk stride = %d (chunk 0 GraphN %d), want 40", seg.ChunkStride, seg.Chunks[0].GraphN)
	}
	var sumSize int64
	var sumK, sumN int
	for _, ch := range seg.Chunks {
		sumSize += ch.Size
		sumK += ch.K
		sumN += ch.N
	}
	if sumSize != int64(len(data)) {
		t.Fatalf("chunk sizes sum to %d, want %d", sumSize, len(data))
	}
	if sumK != seg.Coding.K || sumN != seg.Coding.N {
		t.Fatalf("chunk K/N sums (%d/%d) != coding (%d/%d)", sumK, sumN, seg.Coding.K, seg.Coding.N)
	}

	got, rs, err := c.Read(ctx, "stream")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data differs from streamed input")
	}
	if rs.Received < rs.K {
		t.Fatalf("received %d < K %d", rs.Received, rs.K)
	}
}

func TestWriteFromUnknownSize(t *testing.T) {
	c, _ := newTestClient(t, 5, streamOptions())
	ctx := context.Background()

	// Unknown size (-1): the pump reads until EOF, including an input
	// that ends exactly on a chunk boundary (the empty-final-read case).
	for _, n := range []int{3 * (8 << 10), 20<<10 + 77} {
		data := randData(n, int64(n))
		name := "anon-" + string(rune('a'+n%26))
		ws, err := c.WriteFrom(ctx, name, bytes.NewReader(data), -1, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if ws.Committed < ws.N {
			t.Fatalf("n=%d: committed %d < N %d", n, ws.Committed, ws.N)
		}
		seg, err := c.meta.LookupSegment(name)
		if err != nil {
			t.Fatal(err)
		}
		if seg.Size != int64(n) {
			t.Fatalf("n=%d: recorded size %d", n, seg.Size)
		}
		got, _, err := c.Read(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d: read data differs", n)
		}
	}
}

func TestWriteChunkedSlicePath(t *testing.T) {
	// Client.Write with ChunkBytes set runs the same chunked engine by
	// slicing the in-memory buffer; the stored layout must match the
	// streamed one and round-trip.
	c, _ := newTestClient(t, 5, streamOptions())
	ctx := context.Background()
	data := randData(30<<10, 4) // 3 full chunks + 6 KB tail

	if _, err := c.Write(ctx, "sliced", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("sliced")
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Chunks) != 4 || seg.ChunkStride <= 0 {
		t.Fatalf("chunks=%d stride=%d, want 4 chunks with positive stride", len(seg.Chunks), seg.ChunkStride)
	}
	got, _, err := c.Read(ctx, "sliced")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data differs")
	}
}

func TestWriteSingleChunkLayout(t *testing.T) {
	// ChunkBytes=0 (the default) writes the whole segment as one chunk:
	// a one-entry table seeded by the chunk identity, its graph size the
	// stride.
	c, _ := newTestClient(t, 5, Options{BlockBytes: 2 << 10})
	ctx := context.Background()
	data := randData(20<<10, 2)

	if _, err := c.Write(ctx, "whole", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("whole")
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Chunks) != 1 || seg.ChunkStride != seg.Chunks[0].GraphN {
		t.Fatalf("whole-segment write: chunks=%+v stride=%d, want one chunk whose GraphN is the stride", seg.Chunks, seg.ChunkStride)
	}
	if ch := seg.Chunks[0]; ch.Size != int64(len(data)) || ch.K != seg.Coding.K || ch.N != seg.Coding.N ||
		ch.GraphSeed != graphSeed("whole#0", int64(len(data))) || ch.GraphSeed != seg.Coding.GraphSeed {
		t.Fatalf("chunk %+v does not match segment %+v", ch, seg.Coding)
	}

	// WriteFrom without ChunkBytes falls back to buffering the reader
	// and writing the same one-chunk layout.
	if _, err := c.WriteFrom(ctx, "whole2", bytes.NewReader(data), int64(len(data)), nil); err != nil {
		t.Fatal(err)
	}
	seg2, err := c.meta.LookupSegment("whole2")
	if err != nil {
		t.Fatal(err)
	}
	if len(seg2.Chunks) != 1 || seg2.ChunkStride != seg2.Chunks[0].GraphN {
		t.Fatalf("WriteFrom fallback: chunks=%+v stride=%d", seg2.Chunks, seg2.ChunkStride)
	}
	got, _, err := c.Read(ctx, "whole2")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fallback read data differs")
	}
}

// TestChunklessRecordIsOneChunk hand-builds a record as segments were
// stored before chunk tables existed — no table, no stride, one graph
// seeded by the segment name — and checks that Create, Update and a
// snapshot Load all turn it into one chunk with its recorded seed and
// graph size, and that every client path works on it. A record from
// before GraphN was recorded has a graph of exactly N blocks.
func TestChunklessRecordIsOneChunk(t *testing.T) {
	for _, graphN := range []int{80, 0} {
		t.Run(fmt.Sprintf("GraphN=%d", graphN), func(t *testing.T) {
			c, stores := newTestClient(t, 4, Options{BlockBytes: 1 << 10})
			ctx := context.Background()
			data := randData(15<<10+100, 20) // K=16, the last block short
			rec := metadata.Segment{
				Name: "old",
				Size: int64(len(data)),
				Coding: metadata.Coding{
					Algorithm: algLTSpike3, K: 16, N: 64, BlockBytes: 1 << 10, C: 1, Delta: 0.1,
					GraphSeed: graphSeed("old", int64(len(data))), GraphN: graphN, ShareFormat: blockstore.ShareFormat,
				},
				Placement: map[string][]int{},
			}
			wantN := graphN
			if wantN == 0 {
				wantN = rec.Coding.N
			}
			want := metadata.Chunk{Size: rec.Size, K: 16, N: 64, GraphSeed: rec.Coding.GraphSeed, GraphN: wantN}
			cod := rec.Coding
			cod.GraphN = wantN
			graph, err := buildGraph(cod)
			if err != nil {
				t.Fatal(err)
			}
			blocks := splitBlocks(data, cod.BlockBytes)
			for i := 0; i < rec.Coding.N; i++ {
				addr := fmt.Sprintf("mem-%02d", i%len(stores))
				if err := stores[i%len(stores)].Put(ctx, "old", i, sealShare("old", i, graph.EncodeBlock(i, blocks))); err != nil {
					t.Fatal(err)
				}
				rec.Placement[addr] = append(rec.Placement[addr], i)
			}
			oneChunk := func(how string, seg metadata.Segment) {
				t.Helper()
				if len(seg.Chunks) != 1 || seg.Chunks[0] != want || seg.ChunkStride != wantN {
					t.Fatalf("after %s: chunks=%+v stride=%d, want [%+v] stride %d", how, seg.Chunks, seg.ChunkStride, want, wantN)
				}
			}

			snap, err := json.Marshal(map[string]any{"format_version": 1, "segments": []metadata.Segment{rec}})
			if err != nil {
				t.Fatal(err)
			}
			loaded := metadata.NewService()
			if err := loaded.Load(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}
			seg, err := loaded.LookupSegment("old")
			if err != nil {
				t.Fatal(err)
			}
			oneChunk("Load", seg)
			if err := c.meta.CreateSegment(rec); err != nil {
				t.Fatal(err)
			}
			if seg, err = c.meta.LookupSegment("old"); err != nil {
				t.Fatal(err)
			}
			oneChunk("Create", seg)
			if err := c.meta.UpdateSegment(rec); err != nil {
				t.Fatal(err)
			}
			if seg, err = c.meta.LookupSegment("old"); err != nil {
				t.Fatal(err)
			}
			oneChunk("Update", seg)

			got, _, err := c.Read(ctx, "old")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read of a chunkless record differs")
			}
			if affected, err := c.AffectedBlocks("old", 2<<10, 1<<10); err != nil || affected == 0 {
				t.Fatalf("AffectedBlocks = %d, %v", affected, err)
			}
			patch := randData(3<<10, 21)
			off := int64(5<<10 + 7)
			if err := c.Update(ctx, "old", off, patch); err != nil {
				t.Fatal(err)
			}
			copy(data[off:], patch)

			// Lose a holder's shares: Health sees them missing, Repair
			// regenerates them from the recorded graph.
			for _, i := range rec.Placement["mem-01"] {
				if err := stores[1].Delete(ctx, "old", i); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := c.Health(ctx, "old")
			if err != nil {
				t.Fatal(err)
			}
			if rep.Missing != 16 || rep.Reachable != 48 || !rep.Decodable {
				t.Fatalf("health after losing a holder = %+v", rep)
			}
			rs, err := c.Repair(ctx, "old")
			if err != nil {
				t.Fatal(err)
			}
			if rs.Regenerated != 16 {
				t.Fatalf("repair regenerated %d of 16 lost shares", rs.Regenerated)
			}
			if rep, err = c.Health(ctx, "old"); err != nil || rep.Missing != 0 || rep.Reachable != 64 {
				t.Fatalf("health after repair = %+v, %v", rep, err)
			}
			got, _, err = c.Read(ctx, "old")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read after update and repair differs")
			}
		})
	}
}

// shareForm is how putRecord stores each share of a record.
type shareForm int

const (
	formBare    shareForm = iota // the coded block alone, no ShareFormat
	formRSC1                     // the envelope whose CRC covers the payload only, no ShareFormat
	formCurrent                  // the current envelope, bound to name and index
)

func (f shareForm) String() string { return [...]string{"bare", "RSC1", "current"}[f] }

// sealRSC1 frames a coded block in the envelope segments were stored
// in before RSC2: magic "RSC1", then the CRC-32C of the payload alone.
func sealRSC1(data []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, 0x52534331)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, data...)
}

// putRecord hand-builds a record of data (K=16 shares of 1 KiB, N=64)
// with its shares in form: bare and RSC1 records are stored as a client
// before share formats were numbered stored them, without ShareFormat.
// Share i goes through puts[i%len(puts)] and is placed on
// addrs[i%len(addrs)].
func putRecord(t *testing.T, c *Client, addrs []string, puts []blockstore.Store, name string, data []byte, form shareForm) {
	t.Helper()
	ctx := context.Background()
	rec := metadata.Segment{
		Name: name,
		Size: int64(len(data)),
		Coding: metadata.Coding{
			Algorithm: algLTSpike3, K: 16, N: 64, BlockBytes: 1 << 10, C: 1, Delta: 0.1,
			GraphSeed: graphSeed(name, int64(len(data))), GraphN: 80,
		},
		Placement: map[string][]int{},
	}
	if form == formCurrent {
		rec.Coding.ShareFormat = blockstore.ShareFormat
	}
	graph, err := buildGraph(rec.Coding)
	if err != nil {
		t.Fatal(err)
	}
	blocks := splitBlocks(data, rec.Coding.BlockBytes)
	for i := 0; i < rec.Coding.N; i++ {
		share := graph.EncodeBlock(i, blocks)
		switch form {
		case formRSC1:
			share = sealRSC1(share)
		case formCurrent:
			share = sealShare(name, i, share)
		}
		if err := puts[i%len(puts)].Put(ctx, name, i, share); err != nil {
			t.Fatal(err)
		}
		addr := addrs[i%len(addrs)]
		rec.Placement[addr] = append(rec.Placement[addr], i)
	}
	if err := c.meta.CreateSegment(rec); err != nil {
		t.Fatal(err)
	}
}

// memAddrs returns newTestClient's addresses for its n stores.
func memAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("mem-%02d", i)
	}
	return addrs
}

// asStores returns the MemStores as plain stores.
func asStores(mems []*blockstore.MemStore) []blockstore.Store {
	out := make([]blockstore.Store, len(mems))
	for i, m := range mems {
		out[i] = m
	}
	return out
}

// shareForms counts the placed shares of name stored in the current
// format and in an older one that upgrades, and checks the record's
// ShareFormat against want. A share that is neither fails the test.
func shareForms(t *testing.T, c *Client, name string, want int) (old, current int) {
	t.Helper()
	ctx := context.Background()
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Coding.ShareFormat != want {
		t.Fatalf("%s: ShareFormat = %d, want %d", name, seg.Coding.ShareFormat, want)
	}
	bb := seg.Coding.BlockBytes
	for addr, indices := range seg.Placement {
		store, ok := c.store(addr)
		if !ok {
			t.Fatalf("%s placed on unattached %s", name, addr)
		}
		for _, idx := range indices {
			share, err := store.Get(ctx, name, idx)
			if err != nil {
				t.Fatal(err)
			}
			if data, err := blockstore.OpenShare(share, name, idx); err == nil && int64(len(data)) == bb {
				current++
			} else if _, changed := blockstore.UpgradeShare(share, bb, name, idx); changed {
				old++
			} else {
				t.Fatalf("%s share %d on %s is %d bytes and neither current nor upgradable", name, idx, addr, len(share))
			}
		}
	}
	return old, current
}

// readsTotal is the client's robust_reads_total: every read, including
// the one a repair makes to regenerate shares.
func readsTotal(reg *obs.Registry) int64 { return reg.Snapshot().Counters["robust_reads_total"] }

// TestOutdatedRecordUpgradesOnRepair: a record stored before share
// formats were numbered, bare or RSC1, refuses Read, ReadAt and Update
// with ErrShareFormat. Repair upgrades every share in place with no
// decode and records the current format; the segment then reads. With
// a holder's shares lost, the same repair also regenerates them.
func TestOutdatedRecordUpgradesOnRepair(t *testing.T) {
	for _, form := range []shareForm{formBare, formRSC1} {
		t.Run(form.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			c, stores := newTestClient(t, 4, Options{BlockBytes: 1 << 10, Obs: reg})
			ctx := context.Background()
			data := randData(16<<10, 22)
			putRecord(t, c, memAddrs(4), asStores(stores), "old", data, form)
			if _, _, err := c.Read(ctx, "old"); !errors.Is(err, ErrShareFormat) {
				t.Fatalf("Read = %v, want ErrShareFormat", err)
			}
			if _, _, err := c.ReadAt(ctx, "old", 10, 10); !errors.Is(err, ErrShareFormat) {
				t.Fatalf("ReadAt = %v, want ErrShareFormat", err)
			}
			if err := c.Update(ctx, "old", 10, []byte("patch")); !errors.Is(err, ErrShareFormat) {
				t.Fatalf("Update = %v, want ErrShareFormat", err)
			}

			reads := readsTotal(reg)
			rs, err := c.Repair(ctx, "old")
			if err != nil {
				t.Fatal(err)
			}
			if n := readsTotal(reg) - reads; n != 0 || rs.Regenerated != 0 {
				t.Fatalf("upgrade made %d reads and regenerated %d shares, want none", n, rs.Regenerated)
			}
			if old, current := shareForms(t, c, "old", blockstore.ShareFormat); old != 0 || current != 64 {
				t.Fatalf("after the upgrade: %d old and %d current shares, want 0 and 64", old, current)
			}
			if got, _, err := c.Read(ctx, "old"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read after the upgrade: %v (bytes equal %v)", err, bytes.Equal(got, data))
			}

			lost := randData(16<<10, 24)
			putRecord(t, c, memAddrs(4), asStores(stores), "lost", lost, form)
			for i := 1; i < 64; i += 4 { // mem-01's shares
				if err := stores[1].Delete(ctx, "lost", i); err != nil {
					t.Fatal(err)
				}
			}
			if rs, err = c.Repair(ctx, "lost"); err != nil {
				t.Fatal(err)
			}
			if rs.Regenerated != 16 {
				t.Fatalf("repair regenerated %d of 16 lost shares", rs.Regenerated)
			}
			if old, current := shareForms(t, c, "lost", blockstore.ShareFormat); old != 0 || current != 64 {
				t.Fatalf("after the repair: %d old and %d current shares, want 0 and 64", old, current)
			}
			if got, _, err := c.Read(ctx, "lost"); err != nil || !bytes.Equal(got, lost) {
				t.Fatalf("read after the repair: %v (bytes equal %v)", err, bytes.Equal(got, lost))
			}
		})
	}
}

// putBudget is a store whose Puts fail once a budget shared with its
// siblings is spent, cutting a multi-server write short as a crash
// would.
type putBudget struct {
	blockstore.Store
	left *atomic.Int64
}

func (p putBudget) Put(ctx context.Context, segment string, index int, data []byte) error {
	if p.left.Add(-1) < 0 {
		return errors.New("put budget spent")
	}
	return p.Store.Put(ctx, segment, index, data)
}

// TestOutdatedUpgradeCutShortFinishes stops an upgrade halfway: half of
// the record's shares are current, half still old, and the record
// keeps its old format, so it still refuses reads. The next Repair
// keeps the upgraded half and finishes the rest, with no decode.
func TestOutdatedUpgradeCutShortFinishes(t *testing.T) {
	for _, form := range []shareForm{formBare, formRSC1} {
		t.Run(form.String(), func(t *testing.T) {
			meta := metadata.NewService()
			reg := obs.NewRegistry()
			c, err := NewClient(meta, Options{BlockBytes: 1 << 10, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			var left atomic.Int64
			mems := make([]blockstore.Store, 4)
			for i, addr := range memAddrs(4) {
				mems[i] = blockstore.NewMemStore()
				if err := c.AttachStore(addr, putBudget{Store: mems[i], left: &left}); err != nil {
					t.Fatal(err)
				}
				meta.RegisterServer(metadata.Server{Addr: addr})
			}
			ctx := context.Background()
			data := randData(16<<10, 25)
			putRecord(t, c, memAddrs(4), mems, "cut", data, form)

			left.Store(32)
			if _, err := c.Repair(ctx, "cut"); err == nil {
				t.Fatal("repair succeeded with half of its puts failing")
			}
			if old, current := shareForms(t, c, "cut", 0); old != 32 || current != 32 {
				t.Fatalf("cut-short upgrade left %d old and %d current shares, want 32 and 32", old, current)
			}
			if _, _, err := c.Read(ctx, "cut"); !errors.Is(err, ErrShareFormat) {
				t.Fatalf("read of a half-upgraded record = %v, want ErrShareFormat", err)
			}

			left.Store(1 << 20)
			reads := readsTotal(reg)
			if _, err := c.Repair(ctx, "cut"); err != nil {
				t.Fatal(err)
			}
			if n := readsTotal(reg) - reads; n != 0 {
				t.Fatalf("finishing the upgrade made %d reads, want none", n)
			}
			if puts := 1<<20 - left.Load(); puts != 32 {
				t.Fatalf("finishing the upgrade made %d puts, want the 32 old shares'", puts)
			}
			if old, current := shareForms(t, c, "cut", blockstore.ShareFormat); old != 0 || current != 64 {
				t.Fatalf("second repair left %d old and %d current shares, want 0 and 64", old, current)
			}
			got, _, err := c.Read(ctx, "cut")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read after the upgrade: %v (bytes equal %v)", err, bytes.Equal(got, data))
			}
		})
	}
}

func TestWriteFromShortInput(t *testing.T) {
	c, stores := newTestClient(t, 4, streamOptions())
	ctx := context.Background()
	data := randData(12<<10, 3)

	// Declared 20 KB, reader delivers 12 KB: the write must fail, leave
	// no metadata, and delete the shares the first chunk already placed.
	_, err := c.WriteFrom(ctx, "short", bytes.NewReader(data), 20<<10, nil)
	if err == nil {
		t.Fatal("short input accepted")
	}
	if !strings.Contains(err.Error(), "short input") {
		t.Fatalf("error %q does not mention short input", err)
	}
	if _, lerr := c.meta.LookupSegment("short"); !errors.Is(lerr, metadata.ErrSegmentNotFound) {
		t.Fatalf("metadata survived a failed stream: %v", lerr)
	}
	for i, ms := range stores {
		if idx, _ := ms.List(ctx, "short"); len(idx) != 0 {
			t.Fatalf("store %d kept %d orphaned shares after failed stream", i, len(idx))
		}
	}
}

func TestWriteChunkedShortWriteCleansUp(t *testing.T) {
	// Four capped stores with room for the first chunk but not the
	// second: the write fails with ErrShortWrite and the first chunk's
	// already-committed shares are deleted, not orphaned.
	opts := streamOptions()
	opts.BlockBytes = 1024
	opts.ChunkBytes = 4096 // K=4, N=16 per chunk
	meta := metadata.NewService()
	c, err := NewClient(meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]*capStore, 4)
	for i := range caps {
		caps[i] = newCapStore(5)
		addr := []string{"cap-a", "cap-b", "cap-c", "cap-d"}[i]
		if err := c.AttachStore(addr, caps[i]); err != nil {
			t.Fatal(err)
		}
		meta.RegisterServer(metadata.Server{Addr: addr})
	}

	ctx := context.Background()
	data := randData(8192, 5) // two chunks; 20 total put slots < 32 needed
	_, werr := c.Write(ctx, "capped", data, nil)
	if !errors.Is(werr, ErrShortWrite) {
		t.Fatalf("err = %v, want ErrShortWrite", werr)
	}
	if _, lerr := meta.LookupSegment("capped"); !errors.Is(lerr, metadata.ErrSegmentNotFound) {
		t.Fatalf("metadata survived a short chunked write: %v", lerr)
	}
	for i, cs := range caps {
		if idx, _ := cs.Store.List(ctx, "capped"); len(idx) != 0 {
			t.Fatalf("store %d kept %d shares from the committed chunk", i, len(idx))
		}
	}
}

func TestChunkedRepairHealthUpdate(t *testing.T) {
	// Surviving a lost server takes a share cap: uncapped, the first
	// worker to start can claim a whole chunk in one run.
	opts := streamOptions()
	opts.MaxServerShare = 0.3
	c, _ := newTestClient(t, 5, opts)
	ctx := context.Background()
	data := randData(28<<10, 6) // 3 full chunks + 4 KB tail

	ws, err := c.WriteFrom(ctx, "fixme", bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Lose the biggest holder's shares outright.
	victim, _ := c.store(holdersByShare(ws.PerServer)[0])
	idx, err := victim.List(ctx, "fixme")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range idx {
		if err := victim.Delete(ctx, "fixme", i); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := c.Health(ctx, "fixme")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Missing == 0 {
		t.Fatal("health saw no missing shares after wiping a store")
	}
	if !rep.Decodable {
		t.Fatal("segment undecodable with one lost store; geometry too tight")
	}

	if _, err := c.Repair(ctx, "fixme"); err != nil {
		t.Fatal(err)
	}
	rep, err = c.Health(ctx, "fixme")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Missing != 0 {
		t.Fatalf("repair left %d shares missing", rep.Missing)
	}

	// Patch spanning the chunk 0/1 boundary, then verify both the
	// affected-block accounting and the read-back.
	patch := randData(4<<10, 7)
	off := int64(6 << 10) // last 2 KB of chunk 0 + first 2 KB of chunk 1
	affected, err := c.AffectedBlocks("fixme", off, int64(len(patch)))
	if err != nil {
		t.Fatal(err)
	}
	if affected <= 0 {
		t.Fatalf("affected blocks = %d for a cross-chunk patch", affected)
	}
	if err := c.Update(ctx, "fixme", off, patch); err != nil {
		t.Fatal(err)
	}
	copy(data[off:], patch)
	got, _, err := c.Read(ctx, "fixme")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read after cross-chunk update differs")
	}
}

// slowStore delays every Put so a context cancellation lands while
// workers still hold leased share buffers.
type slowStore struct {
	blockstore.Store
	delay time.Duration
}

func (s *slowStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.Store.Put(ctx, segment, index, data)
}

func TestWriteShareBufLeaseBalance(t *testing.T) {
	ctx := context.Background()

	t.Run("success", func(t *testing.T) {
		before := shareBufLeases.Load()
		c, _ := newTestClient(t, 5, streamOptions())
		data := randData(24<<10, 8)
		if _, err := c.WriteFrom(ctx, "ok", bytes.NewReader(data), int64(len(data)), nil); err != nil {
			t.Fatal(err)
		}
		if got := shareBufLeases.Load(); got != before {
			t.Fatalf("leases drifted %d -> %d after a successful write", before, got)
		}
	})

	t.Run("short write", func(t *testing.T) {
		before := shareBufLeases.Load()
		opts := Options{BlockBytes: 1024, ChunkBytes: 4096}
		meta := metadata.NewService()
		c, err := NewClient(meta, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range []string{"lease-a", "lease-b", "lease-c"} {
			if err := c.AttachStore(addr, newCapStore(3)); err != nil {
				t.Fatal(err)
			}
			meta.RegisterServer(metadata.Server{Addr: addr})
		}
		if _, werr := c.Write(ctx, "starved", randData(8192, 9), nil); werr == nil {
			t.Fatal("capped write unexpectedly succeeded")
		}
		if got := shareBufLeases.Load(); got != before {
			t.Fatalf("leases drifted %d -> %d after a failed write", before, got)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		before := shareBufLeases.Load()
		meta := metadata.NewService()
		c, err := NewClient(meta, streamOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range []string{"slow-a", "slow-b", "slow-c"} {
			st := &slowStore{Store: blockstore.NewMemStore(), delay: 5 * time.Millisecond}
			if err := c.AttachStore(addr, st); err != nil {
				t.Fatal(err)
			}
			meta.RegisterServer(metadata.Server{Addr: addr})
		}
		wctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			_, werr := c.WriteFrom(wctx, "doomed", bytes.NewReader(randData(64<<10, 10)), 64<<10, nil)
			done <- werr
		}()
		time.Sleep(8 * time.Millisecond) // land mid-chunk
		cancel()
		if werr := <-done; werr == nil {
			// The write may have squeaked through on a fast machine;
			// either way the lease balance below is the real assertion.
			t.Log("canceled write completed before cancellation landed")
		}
		if got := shareBufLeases.Load(); got != before {
			t.Fatalf("leases drifted %d -> %d after a canceled write", before, got)
		}
	})
}

func TestStreamingWriteUsesPutStream(t *testing.T) {
	// End-to-end over real transport: a chunked WriteFrom against mux
	// servers must exercise the PUTSTREAM op (not per-op batches), and
	// the data must round-trip.
	reg := obs.NewRegistry()
	meta := metadata.NewService()
	c, err := NewClient(meta, streamOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		srv := transport.NewServer(blockstore.NewMemStore(), transport.ServerOptions{Obs: reg})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		tc, err := transport.Dial(ln.Addr().String(), transport.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tc.Close() })
		if err := c.AttachStore(ln.Addr().String(), tc); err != nil {
			t.Fatal(err)
		}
		meta.RegisterServer(metadata.Server{Addr: ln.Addr().String()})
	}

	ctx := context.Background()
	data := randData(64<<10, 11) // 8 chunks
	ws, err := c.WriteFrom(ctx, "wired", bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Committed < ws.N {
		t.Fatalf("committed %d < N %d", ws.Committed, ws.N)
	}
	got, _, err := c.Read(ctx, "wired")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data differs over transport")
	}
	snap := reg.Snapshot()
	if snap.Counters["transport_server_put_stream_total"] == 0 {
		t.Fatal("no PUTSTREAM ops reached the servers; streaming path not taken")
	}
}
