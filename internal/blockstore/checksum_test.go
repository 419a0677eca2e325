package blockstore

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

// seal returns payload in a share envelope as block index of segment,
// as a writer stores it.
func seal(segment string, index int, payload []byte) []byte {
	return SealShare(append(make([]byte, ShareOverhead), payload...), segment, index)
}

func TestChecksumRoundTrip(t *testing.T) {
	ctx := context.Background()
	s := WithChecksums(NewMemStore())
	share := seal("seg", 0, []byte("integrity matters"))
	if err := s.Put(ctx, "seg", 0, share); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "seg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, share) {
		t.Fatalf("got %q", got)
	}
	if data, err := OpenShare(got, "seg", 0); err != nil || string(data) != "integrity matters" {
		t.Fatalf("OpenShare = %q, %v", data, err)
	}
}

// TestChecksumDetectsCorruption flips a payload bit beneath the wrapper:
// the scrub reports the block, and the reader's OpenShare refuses it.
func TestChecksumDetectsCorruption(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	s := WithChecksums(inner)
	if err := s.Put(ctx, "seg", 1, seal("seg", 1, []byte("precious bytes"))); err != nil {
		t.Fatal(err)
	}
	framed, _ := inner.Get(ctx, "seg", 1)
	bad := append([]byte(nil), framed...)
	bad[10] ^= 0x40
	inner.Put(ctx, "seg", 1, bad)
	if got, err := s.Scrub(ctx, "seg"); err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf("Scrub = %v, %v, want [1]", got, err)
	}
	share, err := s.Get(ctx, "seg", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShare(share, "seg", 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenShare of a rotten share = %v, want ErrCorrupt", err)
	}
}

// TestChecksumDetectsUnframedData: Put refuses a block without the
// envelope or too short to hold it, and a scrub reports such blocks
// found beneath the wrapper.
func TestChecksumDetectsUnframedData(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	s := WithChecksums(inner)
	for i, block := range [][]byte{[]byte("raw, no frame"), []byte("x")} {
		if err := s.Put(ctx, "seg", i, block); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Put of %q = %v, want ErrCorrupt", block, err)
		}
		inner.Put(ctx, "seg", i, block)
	}
	if got, err := s.Scrub(ctx, "seg"); err != nil || len(got) != 2 {
		t.Fatalf("Scrub = %v, %v, want [0 1]", got, err)
	}
}

// TestChecksumComputesNoCRC: a well-formed envelope with a wrong CRC is
// accepted by Put and returned unchanged by Get — the server checks only
// the header on the data path — and reported by Scrub.
func TestChecksumComputesNoCRC(t *testing.T) {
	ctx := context.Background()
	s := WithChecksums(NewMemStore())
	share := seal("seg", 0, []byte("the reader checks this"))
	share[5] ^= 0x01 // the CRC field
	if err := s.Put(ctx, "seg", 0, share); err != nil {
		t.Fatalf("Put of a well-formed envelope: %v", err)
	}
	if got, err := s.Get(ctx, "seg", 0); err != nil || !bytes.Equal(got, share) {
		t.Fatalf("Get = %q, %v; want the stored bytes unchanged", got, err)
	}
	if got, err := s.Scrub(ctx, "seg"); err != nil || len(got) != 1 || got[0] != 0 {
		t.Fatalf("Scrub = %v, %v, want [0]", got, err)
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
		s.Put(ctx, "seg", i, seal("seg", i, []byte{byte(i), byte(i + 1)}))
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
		if err := s.Put(ctx, "q", 0, seal("q", 0, payload)); err != nil {
			return false
		}
		got, err := s.Get(ctx, "q", 0)
		if err != nil {
			return false
		}
		data, err := OpenShare(got, "q", 0)
		return err == nil && bytes.Equal(data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumQuickFlipAnyBit(t *testing.T) {
	// Any single-bit flip anywhere in the envelope must fail the scrub.
	ctx := context.Background()
	inner := NewMemStore()
	s := WithChecksums(inner)
	framed := seal("q", 0, []byte("the quick brown fox jumps over the lazy dog"))
	for bit := 0; bit < len(framed)*8; bit++ {
		bad := append([]byte(nil), framed...)
		bad[bit/8] ^= 1 << (bit % 8)
		inner.Put(ctx, "q", 0, bad)
		if got, err := s.Scrub(ctx, "q"); err != nil || len(got) != 1 {
			t.Fatalf("bit flip %d undetected: Scrub = %v, %v", bit, got, err)
		}
	}
}

// TestChecksumPutBackToBack stores two different blocks in a row from
// one reused buffer; the second must not reach the first stored block.
func TestChecksumPutBackToBack(t *testing.T) {
	ctx := context.Background()
	s := WithChecksums(NewMemStore())
	first, second := seal("seg", 0, bytes.Repeat([]byte("a"), 4096)), seal("seg", 1, bytes.Repeat([]byte("b"), 4096))
	buf := make([]byte, len(first))
	for i, data := range [][]byte{first, second} {
		copy(buf, data)
		if err := s.Put(ctx, "seg", i, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range [][]byte{first, second} {
		if got, err := s.Get(ctx, "seg", i); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d read back %.8q..., %v", i, got, err)
		}
	}
}

// TestChecksumPutConcurrent stores from many goroutines at once; every
// block reads back intact.
func TestChecksumPutConcurrent(t *testing.T) {
	ctx := context.Background()
	s := WithChecksums(NewMemStore())
	const workers, puts = 8, 25
	block := func(w, i int) []byte { return seal("seg", w*puts+i, bytes.Repeat([]byte{byte(w), byte(i)}, 2048)) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				if err := s.Put(ctx, "seg", w*puts+i, block(w, i)); err != nil {
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
			if err != nil || !bytes.Equal(got, block(w, i)) {
				t.Fatalf("block %d/%d read back wrong: %v", w, i, err)
			}
		}
	}
}
