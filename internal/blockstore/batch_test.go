package blockstore

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// plainStore strips the Batcher methods off a MemStore, standing in
// for a backend without batch fast paths.
type plainStore struct{ inner *MemStore }

func (p plainStore) Put(ctx context.Context, seg string, idx int, data []byte) error {
	return p.inner.Put(ctx, seg, idx, data)
}
func (p plainStore) Get(ctx context.Context, seg string, idx int) ([]byte, error) {
	return p.inner.Get(ctx, seg, idx)
}
func (p plainStore) Delete(ctx context.Context, seg string, idx int) error {
	return p.inner.Delete(ctx, seg, idx)
}
func (p plainStore) List(ctx context.Context, seg string) ([]int, error) {
	return p.inner.List(ctx, seg)
}
func (p plainStore) Close() error { return p.inner.Close() }

// TestBatchRoundTrip exercises PutBatch/GetBatch/DeleteBatch across
// every Batcher and the checksum wrapper over a non-batching inner
// store, which must fall back to per-block calls.
func TestBatchRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		store Store
	}{
		{"mem", NewMemStore()},
		{"checksum-mem", WithChecksums(NewMemStore())},
		{"checksum-plain", WithChecksums(plainStore{NewMemStore()})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, ok := tc.store.(Batcher)
			if !ok {
				t.Fatal("store does not implement Batcher")
			}
			ctx := context.Background()
			puts := []BatchPut{
				{Index: 0, Data: seal("seg", 0, []byte("alpha"))},
				{Index: 3, Data: seal("seg", 3, []byte(""))},
				{Index: 7, Data: seal("seg", 7, []byte("gamma"))},
			}
			for i, err := range b.PutBatch(ctx, "seg", puts) {
				if err != nil {
					t.Fatalf("PutBatch[%d]: %v", i, err)
				}
			}
			datas, errs := b.GetBatch(ctx, "seg", []int{0, 3, 7, 9})
			for i, p := range puts {
				if errs[i] != nil || !bytes.Equal(datas[i], p.Data) {
					t.Fatalf("GetBatch[%d] = %q, %v; want %q", i, datas[i], errs[i], p.Data)
				}
			}
			if !errors.Is(errs[3], ErrNotFound) {
				t.Fatalf("GetBatch[missing] = %v, want ErrNotFound", errs[3])
			}
			for i, err := range b.DeleteBatch(ctx, "seg", []int{0, 3, 7}) {
				if err != nil {
					t.Fatalf("DeleteBatch[%d]: %v", i, err)
				}
			}
			if _, errs := b.GetBatch(ctx, "seg", []int{7}); !errors.Is(errs[0], ErrNotFound) {
				t.Fatalf("block survived DeleteBatch: %v", errs[0])
			}
		})
	}
}

// TestBatchPerEntryErrors checks that one bad entry never fails its
// batch: invalid indices are rejected per entry while the rest land.
func TestBatchPerEntryErrors(t *testing.T) {
	s := NewMemStore()
	ctx := context.Background()
	errs := s.PutBatch(ctx, "seg", []BatchPut{
		{Index: -1, Data: []byte("bad")},
		{Index: 2, Data: []byte("good")},
	})
	if errs[0] == nil {
		t.Fatal("negative index accepted")
	}
	if errs[1] != nil {
		t.Fatalf("valid entry rejected alongside bad one: %v", errs[1])
	}
	datas, gerrs := s.GetBatch(ctx, "seg", []int{-1, 2})
	if gerrs[0] == nil {
		t.Fatal("GetBatch accepted negative index")
	}
	if gerrs[1] != nil || string(datas[1]) != "good" {
		t.Fatalf("GetBatch[2] = %q, %v", datas[1], gerrs[1])
	}
	if derrs := s.DeleteBatch(ctx, "seg", []int{-1, 2}); derrs[0] == nil || derrs[1] != nil {
		t.Fatalf("DeleteBatch per-entry errors wrong: %v", derrs)
	}
}

// TestPutBatchDoesNotRetain pins the pooled-buffer contract: the
// store must copy entry data before returning, so a caller recycling
// its buffers cannot corrupt stored blocks.
func TestPutBatchDoesNotRetain(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store Store
	}{
		{"mem", NewMemStore()},
		{"checksum", WithChecksums(NewMemStore())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.store.(Batcher)
			ctx := context.Background()
			buf := seal("seg", 0, []byte("original"))
			want := string(buf)
			if errs := b.PutBatch(ctx, "seg", []BatchPut{{Index: 0, Data: buf}}); errs[0] != nil {
				t.Fatal(errs[0])
			}
			copy(buf, seal("seg", 0, []byte("clobber!")))
			datas, errs := b.GetBatch(ctx, "seg", []int{0})
			if errs[0] != nil || string(datas[0]) != want {
				t.Fatalf("stored block aliased caller buffer: %q, %v", datas[0], errs[0])
			}
		})
	}
}

// TestChecksumGetBatchFlagsCorruption: GetBatch returns every entry as
// stored, rot included, and the reader's OpenShare flags exactly the
// tampered one while its batchmate opens.
func TestChecksumGetBatchFlagsCorruption(t *testing.T) {
	inner := NewMemStore()
	s := WithChecksums(inner)
	ctx := context.Background()
	if errs := s.PutBatch(ctx, "seg", []BatchPut{
		{Index: 0, Data: seal("seg", 0, []byte("keep"))},
		{Index: 1, Data: seal("seg", 1, []byte("smash"))},
	}); errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	// Flip a payload bit behind the wrapper's back.
	raw, err := inner.Get(ctx, "seg", 1)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)-1] ^= 0xFF
	if err := inner.Put(ctx, "seg", 1, tampered); err != nil {
		t.Fatal(err)
	}
	datas, errs := s.GetBatch(ctx, "seg", []int{0, 1})
	if errs[0] != nil || errs[1] != nil || !bytes.Equal(datas[1], tampered) {
		t.Fatalf("GetBatch = %q, %v; want both entries as stored", datas, errs)
	}
	if data, err := OpenShare(datas[0], "seg", 0); err != nil || string(data) != "keep" {
		t.Fatalf("intact batchmate opened to %q, %v", data, err)
	}
	if _, err := OpenShare(datas[1], "seg", 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered entry opened with %v, want ErrCorrupt", err)
	}
}

// TestChecksumPutBatchRefusesUnsealed: an entry without the envelope
// fails alone while its sealed batchmates land, over an inner store
// with and without the batch fast path.
func TestChecksumPutBatchRefusesUnsealed(t *testing.T) {
	for _, s := range []*ChecksumStore{WithChecksums(NewMemStore()), WithChecksums(plainStore{NewMemStore()})} {
		ctx := context.Background()
		errs := s.PutBatch(ctx, "seg", []BatchPut{
			{Index: 0, Data: seal("seg", 0, []byte("good"))},
			{Index: 1, Data: []byte("bare block")},
		})
		if errs[0] != nil || !errors.Is(errs[1], ErrCorrupt) {
			t.Fatalf("PutBatch errors = %v, want [nil ErrCorrupt]", errs)
		}
		if got, err := s.List(ctx, "seg"); err != nil || len(got) != 1 || got[0] != 0 {
			t.Fatalf("List = %v, %v, want [0]", got, err)
		}
	}
}

// TestBatchClosedAndCanceled checks whole-batch failure modes: a
// closed store and a canceled context fill every slot.
func TestBatchClosedAndCanceled(t *testing.T) {
	s := NewMemStore()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for i, err := range s.PutBatch(canceled, "seg", make([]BatchPut, 2)) {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled PutBatch[%d] = %v", i, err)
		}
	}
	s.Close()
	ctx := context.Background()
	if errs := s.PutBatch(ctx, "seg", []BatchPut{{Index: 0, Data: []byte("x")}}); !errors.Is(errs[0], ErrClosed) {
		t.Fatalf("closed PutBatch = %v, want ErrClosed", errs[0])
	}
	if _, errs := s.GetBatch(ctx, "seg", []int{0}); !errors.Is(errs[0], ErrClosed) {
		t.Fatalf("closed GetBatch = %v, want ErrClosed", errs[0])
	}
	if errs := s.DeleteBatch(ctx, "seg", []int{0}); !errors.Is(errs[0], ErrClosed) {
		t.Fatalf("closed DeleteBatch = %v, want ErrClosed", errs[0])
	}
}
