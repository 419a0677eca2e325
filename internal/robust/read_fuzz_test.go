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
	mode  byte   // what it does, mod 4: truncate, pad, flip a bit, swap
	arg   uint16 // length, bit or other share, by mode
}

// swaps reports whether a rule serves one share's bytes for another:
// the envelope covers a share's payload but not its index, so a sealed
// record read through such a rule may decode to wrong bytes.
func (d damage) swaps() bool { return d.mode%4 == 3 && int(d.arg)%64 != d.index }

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
		switch r.mode % 4 {
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
			other, gerr := s.Store.Get(ctx, segment, int(r.arg)%64)
			if gerr != nil {
				return nil, gerr
			}
			share = bytes.Clone(other)
		}
	}
	return share, nil
}

// FuzzRead drives whole reads of a sealed and of an unsealed record
// over stores that damage chosen shares: truncated, padded,
// bit-flipped, or another share's bytes. A read never panics, and a
// read of a sealed record without swapped shares never returns wrong
// bytes.
func FuzzRead(f *testing.F) {
	f.Add(true, []byte{})
	f.Add(false, []byte{})
	f.Add(false, []byte{3, 0, 0, 200}) // truncated bare share
	f.Add(false, []byte{5, 1, 0, 7})   // padded bare share
	f.Add(true, []byte{3, 0, 4, 7})    // truncated envelope
	f.Add(true, []byte{2, 1, 0, 7})    // envelope with slack
	f.Add(true, []byte{9, 2, 1, 0, 10, 2, 0, 70})
	f.Add(true, []byte{4, 3, 0, 4}) // a share served as itself
	f.Add(false, []byte{4, 3, 0, 9, 8, 3, 0, 1})
	f.Fuzz(func(t *testing.T, sealed bool, rules []byte) {
		if len(rules) > 64 {
			return
		}
		c, err := NewClient(metadata.NewService(), Options{BlockBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		store := damagedStore{Store: blockstore.NewMemStore()}
		exact := true
		for ; len(rules) >= 4; rules = rules[4:] {
			r := damage{index: int(rules[0]) % 64, mode: rules[1], arg: binary.BigEndian.Uint16(rules[2:4])}
			store.rules = append(store.rules, r)
			exact = exact && !r.swaps()
		}
		if err := c.AttachStore("damaged", store); err != nil {
			t.Fatal(err)
		}
		data := randData(16<<10, 27)
		putLegacyRecord(t, c, []string{"damaged"}, []blockstore.Store{store.Store}, "fuzz", data, sealed)
		got, _, err := c.Read(context.Background(), "fuzz")
		if err == nil && sealed && exact && !bytes.Equal(got, data) {
			t.Fatal("read of a sealed record returned wrong bytes")
		}
	})
}
