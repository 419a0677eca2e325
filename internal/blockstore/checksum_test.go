package blockstore

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestChecksumRoundTrip(t *testing.T) {
	ctx := context.Background()
	s := WithChecksums(NewMemStore())
	data := []byte("integrity matters")
	if err := s.Put(ctx, "seg", 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "seg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	s := WithChecksums(inner)
	if err := s.Put(ctx, "seg", 1, []byte("precious bytes")); err != nil {
		t.Fatal(err)
	}
	// Flip a bit behind the wrapper's back.
	framed, _ := inner.Get(ctx, "seg", 1)
	bad := append([]byte(nil), framed...)
	bad[10] ^= 0x40
	inner.Put(ctx, "seg", 1, bad)
	if _, err := s.Get(ctx, "seg", 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted Get = %v, want ErrCorrupt", err)
	}
}

func TestChecksumDetectsUnframedData(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	inner.Put(ctx, "seg", 0, []byte("raw, no frame"))
	s := WithChecksums(inner)
	if _, err := s.Get(ctx, "seg", 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unframed Get = %v, want ErrCorrupt", err)
	}
	inner.Put(ctx, "seg", 1, []byte("x"))
	if _, err := s.Get(ctx, "seg", 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short frame Get = %v, want ErrCorrupt", err)
	}
}

func TestChecksumMissingBlockPassesThrough(t *testing.T) {
	s := WithChecksums(NewMemStore())
	if _, err := s.Get(context.Background(), "seg", 5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing Get = %v, want ErrNotFound", err)
	}
}

func TestScrub(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	s := WithChecksums(inner)
	for i := 0; i < 5; i++ {
		s.Put(ctx, "seg", i, []byte{byte(i), byte(i + 1)})
	}
	// Corrupt blocks 1 and 3 underneath.
	for _, i := range []int{1, 3} {
		framed, _ := inner.Get(ctx, "seg", i)
		bad := append([]byte(nil), framed...)
		bad[len(bad)-1] ^= 0xFF
		inner.Put(ctx, "seg", i, bad)
	}
	bad, err := s.Scrub(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 || bad[0] != 1 || bad[1] != 3 {
		t.Fatalf("Scrub = %v, want [1 3]", bad)
	}
}

func TestChecksumQuickAnyPayload(t *testing.T) {
	ctx := context.Background()
	s := WithChecksums(NewMemStore())
	f := func(payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		if err := s.Put(ctx, "q", 0, payload); err != nil {
			return false
		}
		got, err := s.Get(ctx, "q", 0)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumQuickFlipAnyBit(t *testing.T) {
	// Any single-bit flip anywhere in the frame must be detected.
	ctx := context.Background()
	inner := NewMemStore()
	s := WithChecksums(inner)
	payload := []byte("the quick brown fox jumps over the lazy dog")
	s.Put(ctx, "q", 0, payload)
	framed, _ := inner.Get(ctx, "q", 0)
	for bit := 0; bit < len(framed)*8; bit++ {
		bad := append([]byte(nil), framed...)
		bad[bit/8] ^= 1 << (bit % 8)
		inner.Put(ctx, "q", 0, bad)
		if got, err := s.Get(ctx, "q", 0); err == nil && bytes.Equal(got, payload) {
			t.Fatalf("bit flip %d undetected", bit)
		}
	}
}

// TestChecksumPutBackToBack stores two different blocks in a row; the
// second Put reuses the first one's seal buffer, which must not reach
// the first stored block.
func TestChecksumPutBackToBack(t *testing.T) {
	ctx := context.Background()
	s := WithChecksums(NewMemStore())
	first, second := bytes.Repeat([]byte("a"), 4096), bytes.Repeat([]byte("b"), 4096)
	for i, data := range [][]byte{first, second} {
		if err := s.Put(ctx, "seg", i, data); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range [][]byte{first, second} {
		if got, err := s.Get(ctx, "seg", i); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d read back %.8q..., %v", i, got, err)
		}
	}
}

// TestChecksumPutConcurrent seals from many goroutines at once, so
// pooled seal buffers pass between them; every block reads back intact.
func TestChecksumPutConcurrent(t *testing.T) {
	ctx := context.Background()
	s := WithChecksums(NewMemStore())
	const workers, puts = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				if err := s.Put(ctx, "seg", w*puts+i, bytes.Repeat([]byte{byte(w), byte(i)}, 2048)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i := 0; i < puts; i++ {
			got, err := s.Get(ctx, "seg", w*puts+i)
			if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(w), byte(i)}, 2048)) {
				t.Fatalf("block %d/%d read back wrong: %v", w, i, err)
			}
		}
	}
}

// sliceRecorder is a MemStore that remembers the backing array of
// every slice Put hands it (its own copy is what it stores).
type sliceRecorder struct {
	*MemStore
	seen []*byte
}

func (r *sliceRecorder) Put(ctx context.Context, seg string, idx int, data []byte) error {
	r.seen = append(r.seen, unsafe.SliceData(data))
	return r.MemStore.Put(ctx, seg, idx, data)
}

// TestChecksumPutReusesSealBuffer shows the seal buffers come from the
// pool: some Put hands the inner store a buffer an earlier Put handed
// it, while every stored block stays intact. A pool may drop any one
// buffer (it does so at random under -race), so the test looks for
// reuse across many Puts rather than in one pair.
func TestChecksumPutReusesSealBuffer(t *testing.T) {
	ctx := context.Background()
	inner := &sliceRecorder{MemStore: NewMemStore()}
	s := WithChecksums(inner)
	const puts = 50
	blocks := make([][]byte, puts)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i)}, 1000)
		if err := s.Put(ctx, "seg", i, blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	reused := false
	seen := make(map[*byte]bool, puts)
	for _, p := range inner.seen {
		reused = reused || seen[p]
		seen[p] = true
	}
	if !reused {
		t.Fatalf("%d Puts sealed into %d distinct buffers: the seal buffer is not pooled", puts, len(seen))
	}
	for i, want := range blocks {
		if got, err := s.Get(ctx, "seg", i); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d read back wrong: %v", i, err)
		}
	}
}
