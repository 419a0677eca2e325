package robust

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/metadata"
)

// damagedStore serves a store's shares through damage rules: rule r
// applies to every Get of share r.index.
type damagedStore struct {
	blockstore.Store
	rules []damage
}

// damage is one fuzzer-chosen rule, decoded from four input bytes.
type damage struct {
	index int    // share the rule applies to
	mode  byte   // what it does, mod 5: truncate, pad, flip a bit, swap, misfile
	arg   uint16 // length, bit or other share, by mode
}

// twinSegment is stored beside the fuzzed segment with the same
// geometry, so a misfiled share is an intact envelope of the same index
// bound to another name.
const twinSegment = "twin"

func (s damagedStore) Get(ctx context.Context, segment string, index int) ([]byte, error) {
	share, err := s.Store.Get(ctx, segment, index)
	if err != nil {
		return nil, err
	}
	share = bytes.Clone(share)
	for _, r := range s.rules {
		if r.index != index {
			continue
		}
		var other []byte
		switch r.mode % 5 {
		case 0:
			share = share[:int(r.arg)%(len(share)+1)]
		case 1:
			share = append(share, make([]byte, 1+int(r.arg)%64)...)
		case 2:
			if len(share) > 0 {
				bit := int(r.arg) % (8 * len(share))
				share[bit/8] ^= 1 << (bit % 8)
			}
		case 3:
			other, err = s.Store.Get(ctx, segment, int(r.arg)%64)
		case 4:
			other, err = s.Store.Get(ctx, twinSegment, index)
		}
		if err != nil {
			return nil, err
		}
		if other != nil {
			share = bytes.Clone(other)
		}
	}
	return share, nil
}

// FuzzRead drives whole reads over a store that damages chosen shares:
// truncated, padded, bit-flipped, another index's share, or the same
// index of another segment. A read never panics, and a read that
// returns data returns the right bytes: the envelope binds each share
// to its segment and index, so no damage is exempt.
func FuzzRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 200})                 // truncated envelope
	f.Add([]byte{3, 0, 4, 0})                   // truncated to exactly one block
	f.Add([]byte{5, 1, 0, 7})                   // envelope with slack
	f.Add([]byte{9, 2, 1, 0, 10, 2, 0, 70})     // flipped bits
	f.Add([]byte{4, 3, 0, 4})                   // a share served as itself
	f.Add([]byte{4, 3, 0, 9, 8, 3, 0, 1})       // shares served as others
	f.Add([]byte{6, 4, 0, 0})                   // the twin segment's share
	f.Add([]byte{0, 3, 0, 1, 1, 3, 0, 0})       // two shares exchanged
	f.Add([]byte{2, 4, 0, 0, 2, 2, 0, 9, 7, 0}) // misfiled, then flipped
	// Shares 0-7, the first a read asks for, all misfiled.
	f.Add([]byte{0, 4, 0, 0, 1, 4, 0, 0, 2, 4, 0, 0, 3, 4, 0, 0, 4, 4, 0, 0, 5, 4, 0, 0, 6, 4, 0, 0, 7, 4, 0, 0})
	f.Fuzz(func(t *testing.T, rules []byte) {
		if len(rules) > 64 {
			return
		}
		c, err := NewClient(metadata.NewService(), Options{BlockBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		store := damagedStore{Store: blockstore.NewMemStore()}
		for ; len(rules) >= 4; rules = rules[4:] {
			store.rules = append(store.rules, damage{index: int(rules[0]) % 64, mode: rules[1], arg: binary.BigEndian.Uint16(rules[2:4])})
		}
		if err := c.AttachStore("damaged", store); err != nil {
			t.Fatal(err)
		}
		data := randData(16<<10, 27)
		puts := []blockstore.Store{store.Store}
		putRecord(t, c, []string{"damaged"}, puts, "fuzz", data, formCurrent)
		putRecord(t, c, []string{"damaged"}, puts, twinSegment, randData(16<<10, 28), formCurrent)
		got, _, err := c.Read(context.Background(), "fuzz")
		if err == nil && !bytes.Equal(got, data) {
			t.Fatal("read returned wrong bytes")
		}
	})
}
