package robust

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
)

// capStore accepts a fixed number of Puts and fails the rest — a
// server out of space after a set count, whichever indices reached it
// (prefixStore fixes the indices too).
type capStore struct {
	blockstore.Store
	remaining atomic.Int64
}

func newCapStore(capacity int) *capStore {
	s := &capStore{Store: blockstore.NewMemStore()}
	s.remaining.Store(int64(capacity))
	return s
}

var errFull = errors.New("capstore: full")

func (s *capStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	if s.remaining.Add(-1) < 0 {
		// Fail slowly: an instantly failing put lets the retry loop burn
		// the write's failure budget before the other stores' successful
		// (slower) puts commit, making the committed count racy.
		time.Sleep(time.Millisecond)
		return errFull
	}
	return s.Store.Put(ctx, segment, index, data)
}

// prefixStore refuses every Put at an index at or above its bound — a
// deterministic "servers out of space": a write over such stores
// commits exactly the shares below the bound, whatever the timing.
type prefixStore struct {
	blockstore.Store
	bound atomic.Int64
}

func (s *prefixStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	if int64(index) >= s.bound.Load() {
		return errFull
	}
	return s.Store.Put(ctx, segment, index, data)
}

// prefixClient builds a client over n prefixStores refusing indices at
// or above bound. K=4 with the small test geometry, so N=16 and the
// default degraded floor is ceil(1.75·4)=7.
func prefixClient(t *testing.T, n, bound int, opts Options) (*Client, []*prefixStore) {
	t.Helper()
	opts.BlockBytes = 1024
	meta := metadata.NewService()
	c, err := NewClient(meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*prefixStore, n)
	for i := range stores {
		stores[i] = &prefixStore{Store: blockstore.NewMemStore()}
		stores[i].bound.Store(int64(bound))
		addr := fmt.Sprintf("prefix-%02d", i)
		if err := c.AttachStore(addr, stores[i]); err != nil {
			t.Fatal(err)
		}
		meta.RegisterServer(metadata.Server{Addr: addr})
	}
	return c, stores
}

// TestErrorTaxonomy provokes each failure mode of the robust client
// and asserts that the resulting error matches its documented sentinel
// via errors.Is — the contract callers dispatch on.
func TestErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	data := randData(4096, 1) // K=4 blocks of 1024

	tests := []struct {
		name    string
		provoke func(t *testing.T) error
		want    error
		notWant []error
	}{
		{
			name: "no servers",
			provoke: func(t *testing.T) error {
				c, err := NewClient(metadata.NewService(), Options{BlockBytes: 1024})
				if err != nil {
					t.Fatal(err)
				}
				_, err = c.Write(ctx, "seg", data, nil)
				return err
			},
			want: ErrNoServers,
		},
		{
			name: "segment exists",
			provoke: func(t *testing.T) error {
				c, _ := newTestClient(t, 4, Options{BlockBytes: 1024})
				if _, err := c.Write(ctx, "seg", data, nil); err != nil {
					t.Fatal(err)
				}
				_, err := c.Write(ctx, "seg", data, nil)
				return err
			},
			want: metadata.ErrSegmentExists,
		},
		{
			name: "segment not found",
			provoke: func(t *testing.T) error {
				c, _ := newTestClient(t, 4, Options{BlockBytes: 1024})
				_, _, err := c.Read(ctx, "missing")
				return err
			},
			want: metadata.ErrSegmentNotFound,
		},
		{
			name: "short write",
			provoke: func(t *testing.T) error {
				// Shares 0–5 only, below the floor of 7: nothing commits.
				c, _ := prefixClient(t, 3, 6, Options{})
				_, err := c.Write(ctx, "seg", data, nil)
				return err
			},
			want:    ErrShortWrite,
			notWant: []error{ErrDegradedWrite},
		},
		{
			name: "short write despite DegradedWrites below floor",
			provoke: func(t *testing.T) error {
				c, _ := prefixClient(t, 3, 6, Options{DegradedWrites: true})
				_, err := c.Write(ctx, "seg", data, nil)
				return err
			},
			want:    ErrShortWrite,
			notWant: []error{ErrDegradedWrite},
		},
		{
			name: "degraded write",
			provoke: func(t *testing.T) error {
				// Shares 0–7 only: between the floor (7) and N (16),
				// and they decode for "seg".
				c, _ := prefixClient(t, 3, 8, Options{DegradedWrites: true})
				stats, err := c.Write(ctx, "seg", data, nil)
				if !stats.Degraded {
					t.Errorf("stats.Degraded = false, want true")
				}
				return err
			},
			want:    ErrDegradedWrite,
			notWant: []error{ErrShortWrite},
		},
		{
			name: "unrecoverable read",
			provoke: func(t *testing.T) error {
				c, stores := newTestClient(t, 4, Options{BlockBytes: 1024})
				if _, err := c.Write(ctx, "seg", data, nil); err != nil {
					t.Fatal(err)
				}
				for _, s := range stores {
					s.Close() // every get now fails; nothing decodes
				}
				_, _, err := c.Read(ctx, "seg")
				return err
			},
			want: ErrUnrecoverable,
		},
		{
			name: "corrupt share: truncated envelope",
			provoke: func(t *testing.T) error {
				_, err := shareData([]byte{0x52, 0x53}, "seg", 0, 64)
				return err
			},
			want: ErrCorruptShare,
		},
		{
			name: "corrupt share: missing magic",
			provoke: func(t *testing.T) error {
				_, err := shareData(make([]byte, 32), "seg", 0, 32)
				return err
			},
			want: ErrCorruptShare,
		},
		{
			name: "corrupt share: flipped payload bit",
			provoke: func(t *testing.T) error {
				framed := sealShare("seg", 0, randData(64, 2))
				framed[blockstore.ShareOverhead+5] ^= 0x10
				_, err := shareData(framed, "seg", 0, 64)
				return err
			},
			want: ErrCorruptShare,
		},
		{
			name: "corrupt share: another index's envelope",
			provoke: func(t *testing.T) error {
				_, err := shareData(sealShare("seg", 1, randData(64, 2)), "seg", 0, 64)
				return err
			},
			want: ErrCorruptShare,
		},
		{
			name: "corrupt share: another segment's envelope",
			provoke: func(t *testing.T) error {
				_, err := shareData(sealShare("other", 0, randData(64, 2)), "seg", 0, 64)
				return err
			},
			want: ErrCorruptShare,
		},
		{
			name: "older share format",
			provoke: func(t *testing.T) error {
				c, stores := newTestClient(t, 4, Options{BlockBytes: 1 << 10})
				putRecord(t, c, memAddrs(4), asStores(stores), "old", randData(16<<10, 3), formRSC1)
				_, _, err := c.Read(ctx, "old")
				return err
			},
			want: ErrShareFormat,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.provoke(t)
			if err == nil {
				t.Fatalf("provoked no error, want %v", tc.want)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.want)
			}
			for _, nw := range tc.notWant {
				if errors.Is(err, nw) {
					t.Fatalf("errors.Is(%v, %v) = true, want false", err, nw)
				}
			}
		})
	}
}

// TestDegradedWriteReadable confirms a degraded commit is immediately
// readable: the floor is above the LT decode threshold by design.
func TestDegradedWriteReadable(t *testing.T) {
	ctx := context.Background()
	data := randData(4096, 3)
	// Shares 0–7 only, which decode for "seg".
	c, _ := prefixClient(t, 3, 8, Options{DegradedWrites: true})
	stats, err := c.Write(ctx, "seg", data, nil)
	if !errors.Is(err, ErrDegradedWrite) {
		t.Fatalf("Write error = %v, want ErrDegradedWrite", err)
	}
	if stats.Committed >= stats.N || stats.Committed < 7 {
		t.Fatalf("Committed = %d, want in [7, %d)", stats.Committed, stats.N)
	}
	seg, err := c.Meta().LookupSegment("seg")
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Degraded {
		t.Error("segment not marked Degraded in metadata")
	}
	got, _, err := c.Read(ctx, "seg")
	if err != nil {
		t.Fatalf("Read after degraded write: %v", err)
	}
	if string(got) != string(data) {
		t.Fatal("degraded segment decoded to wrong data")
	}
}

// TestDegradedWriteUndecodableIsShort: a degraded commit must decode.
// Stores that refuse every index from 8 on commit exactly shares 0–7
// of K=4, N=16 — above the floor of 7 — and for segment "undec-760"
// those eight shares do not span the four originals. The write must
// fail as short and leave neither a metadata record nor shares behind,
// instead of committing a segment no read can decode.
func TestDegradedWriteUndecodableIsShort(t *testing.T) {
	ctx := context.Background()
	c, stores := prefixClient(t, 3, 8, Options{DegradedWrites: true})
	_, err := c.Write(ctx, "undec-760", randData(4096, 41), nil)
	if !errors.Is(err, ErrShortWrite) || errors.Is(err, ErrDegradedWrite) {
		t.Fatalf("Write error = %v, want ErrShortWrite", err)
	}
	if _, err := c.Meta().LookupSegment("undec-760"); !errors.Is(err, metadata.ErrSegmentNotFound) {
		t.Fatalf("LookupSegment after a short write = %v, want not found", err)
	}
	for i, s := range stores {
		if left, err := s.List(ctx, "undec-760"); err != nil || len(left) != 0 {
			t.Fatalf("store %d kept shares %v (err %v) after a short write", i, left, err)
		}
	}
}
