package blockstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
)

// sealRSC1 returns payload in the envelope of the previous format,
// whose CRC covers the payload only, built by hand: nothing in the
// package writes it any more.
func sealRSC1(payload []byte) []byte {
	out := make([]byte, ShareOverhead, ShareOverhead+len(payload))
	binary.BigEndian.PutUint32(out[0:4], rsc1Magic)
	binary.BigEndian.PutUint32(out[4:8], crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// TestShareCRCIsCRCOfNameIndexPayload: the checksum equals crc32 over
// the bytes name ‖ index (u64 big-endian) ‖ payload.
func TestShareCRCIsCRCOfNameIndexPayload(t *testing.T) {
	payload := []byte("payload bytes")
	for _, tc := range []struct {
		name  string
		index int
	}{{"", 0}, {"seg", 7}, {"a/longer segment name, well past one cache line of bytes", 1<<40 + 3}} {
		all := append(binary.BigEndian.AppendUint64([]byte(tc.name), uint64(tc.index)), payload...)
		if got, want := shareCRC(payload, tc.name, tc.index), crc32.Checksum(all, castagnoli); got != want {
			t.Errorf("shareCRC(%q, %d) = %08x, want %08x", tc.name, tc.index, got, want)
		}
	}
}

// TestSealOpenAllocateNothing: sealing and opening a share, name and
// index bound, make no allocation.
func TestSealOpenAllocateNothing(t *testing.T) {
	share := make([]byte, ShareOverhead+16<<10)
	name := "a segment name longer than the thirty-two bytes a conversion gets on the stack"
	allocs := testing.AllocsPerRun(100, func() {
		SealShare(share, name, 12345)
		if _, err := OpenShare(share, name, 12345); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SealShare+OpenShare allocate %v times per share, want 0", allocs)
	}
}

// TestOpenShareChecksBinding: an intact envelope opens only as the
// block it was sealed as.
func TestOpenShareChecksBinding(t *testing.T) {
	share := seal("seg", 3, []byte("payload"))
	if data, err := OpenShare(share, "seg", 3); err != nil || string(data) != "payload" {
		t.Fatalf("OpenShare as itself = %q, %v", data, err)
	}
	for _, as := range []struct {
		name  string
		index int
	}{{"seg", 4}, {"seh", 3}, {"seg2", 3}, {"", 3}} {
		if _, err := OpenShare(share, as.name, as.index); !errors.Is(err, ErrCorrupt) {
			t.Errorf("OpenShare as %q/%d = %v, want ErrCorrupt", as.name, as.index, err)
		}
	}
}

// TestScrubCatchesMisfiledShares: a store whose entry holds another
// index's intact envelope, or the same index of another segment, has
// the entry reported by Scrub and refused by OpenShare.
func TestScrubCatchesMisfiledShares(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	s := WithChecksums(inner)
	for i := 0; i < 4; i++ {
		for _, seg := range []string{"seg", "other"} {
			if err := s.Put(ctx, seg, i, seal(seg, i, []byte(fmt.Sprintf("%s block %d", seg, i)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	swapped, _ := inner.Get(ctx, "seg", 2)
	foreign, _ := inner.Get(ctx, "other", 3)
	s.Put(ctx, "seg", 1, swapped)
	s.Put(ctx, "seg", 3, foreign)
	if got, err := s.Scrub(ctx, "seg"); err != nil || fmt.Sprint(got) != "[1 3]" {
		t.Fatalf("Scrub = %v, %v, want [1 3]", got, err)
	}
	for _, i := range []int{1, 3} {
		share, err := s.Get(ctx, "seg", i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenShare(share, "seg", i); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("OpenShare of misfiled entry %d = %v, want ErrCorrupt", i, err)
		}
	}
}

// TestChecksumRefusesOlderFormat: a server refuses a Put of a share in
// the previous envelope, so a client of the older format fails loudly
// against it.
func TestChecksumRefusesOlderFormat(t *testing.T) {
	ctx := context.Background()
	s := WithChecksums(NewMemStore())
	if err := s.Put(ctx, "seg", 0, sealRSC1([]byte("old client"))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Put of an RSC1 share = %v, want ErrCorrupt", err)
	}
	if errs := s.PutBatch(ctx, "seg", []BatchPut{{Index: 1, Data: sealRSC1([]byte("old client"))}}); !errors.Is(errs[0], ErrCorrupt) {
		t.Fatalf("PutBatch of an RSC1 share = %v, want ErrCorrupt", errs[0])
	}
}

// TestUpgradeShare covers each stored form: current shares are kept,
// intact RSC1 and bare blocks are resealed as the block they are
// stored as, and anything else is kept for a scrub to report.
func TestUpgradeShare(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4)
	bb := int64(len(payload))
	rottenRSC1 := sealRSC1(payload)
	rottenRSC1[len(rottenRSC1)-1] ^= 1
	for _, tc := range []struct {
		what    string
		stored  []byte
		changed bool
	}{
		{"current", seal("seg", 5, payload), false},
		{"RSC1", sealRSC1(payload), true},
		{"bare", bytes.Clone(payload), true},
		{"current, another index", seal("seg", 6, payload), false},
		{"RSC1, rotten", rottenRSC1, false},
		{"RSC1, short payload", sealRSC1(payload[1:]), false},
		{"bare, short", payload[1:], false},
		{"empty", nil, false},
	} {
		before := bytes.Clone(tc.stored)
		share, changed := UpgradeShare(tc.stored, bb, "seg", 5)
		if changed != tc.changed {
			t.Errorf("%s: changed = %v, want %v", tc.what, changed, tc.changed)
		}
		if !bytes.Equal(tc.stored, before) {
			t.Errorf("%s: the stored bytes were modified", tc.what)
		}
		if !changed {
			if !bytes.Equal(share, tc.stored) {
				t.Errorf("%s: kept share differs from the stored one", tc.what)
			}
			continue
		}
		if data, err := OpenShare(share, "seg", 5); err != nil || !bytes.Equal(data, payload) {
			t.Errorf("%s: upgraded share opens to %v, %v", tc.what, data, err)
		}
		if again, changed := UpgradeShare(share, bb, "seg", 5); changed || !bytes.Equal(again, share) {
			t.Errorf("%s: a second upgrade changed the share", tc.what)
		}
	}
}
