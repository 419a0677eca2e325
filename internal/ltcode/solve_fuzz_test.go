package ltcode

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzSolve feeds a decoder arbitrary arrival orders, duplicates
// included, over fuzzer-chosen graphs: K <= 64, any seed, the client's
// "lt" (Luby's) and "lt-spike3" (MinSpike 3) parameters, and Solve
// called wherever the input says. AddData and Solve never panic; a
// symbolic decoder fed the same calls completes in step; completion
// needs full GF(2) rank, and a final Solve completes exactly when the
// blocks held have it (rankPrefix); once complete, Data is the
// originals and no received payload was modified.
func FuzzSolve(f *testing.F) {
	f.Add(uint8(15), int64(1), true, uint8(255), []byte{})
	f.Add(uint8(0), int64(2), false, uint8(0), []byte{0, 0, 0, 0})
	f.Add(uint8(15), int64(3), true, uint8(255), []byte{0x80, 1, 0, 2, 0, 2, 0x80, 2, 0, 3, 0x80, 9})
	f.Add(uint8(31), int64(4), false, uint8(255), bytes.Repeat([]byte{0x80, 7, 0, 11, 0x80, 13, 0, 101}, 24))
	f.Add(uint8(63), int64(5), true, uint8(100), bytes.Repeat([]byte{0x81, 3, 0, 77, 0x80, 41, 0, 200, 0x80, 1}, 40))
	f.Fuzz(func(t *testing.T, k uint8, seed int64, spike bool, extra uint8, arrivals []byte) {
		if len(arrivals) > 2048 {
			return
		}
		p := Params{K: 1 + int(k)%64, C: 1, Delta: 0.1}
		if spike {
			p.MinSpike = 3
		}
		rng := rand.New(rand.NewSource(seed))
		g, err := BuildGraph(p, p.K+int(extra)%(3*p.K+33), rng, DefaultGraphOptions())
		if err != nil {
			return // no decodable graph of this size: nothing to decode
		}
		orig := make([][]byte, p.K)
		for i := range orig {
			orig[i] = make([]byte, 16)
			rng.Read(orig[i])
		}
		coded, err := g.Encode(orig)
		if err != nil {
			t.Fatal(err)
		}
		pristine := make([][]byte, len(coded))
		for i, c := range coded {
			pristine[i] = bytes.Clone(c)
		}

		dat, sym := NewDecoder(g), NewSymbolicDecoder(g)
		var order []int
		for ; len(arrivals) >= 2; arrivals = arrivals[2:] {
			v := binary.BigEndian.Uint16(arrivals)
			idx := int(v&0x7fff) % g.N
			order = append(order, idx)
			if _, err := dat.AddData(idx, coded[idx]); err != nil {
				t.Fatalf("AddData(%d): %v", idx, err)
			}
			sym.Add(idx)
			if v&0x8000 != 0 {
				if solved := dat.Solve(); solved != dat.Complete() {
					t.Fatalf("Solve = %v with Complete = %v", solved, dat.Complete())
				}
				sym.Solve()
			}
			if dat.Complete() != sym.Complete() {
				t.Fatalf("after %d arrivals the data decoder's Complete is %v, the symbolic one's %v", len(order), dat.Complete(), sym.Complete())
			}
			if dat.Complete() && rankPrefix(g, order) < 0 {
				t.Fatalf("complete after %d arrivals without full rank", len(order))
			}
		}
		if full := rankPrefix(g, order) >= 0; dat.Solve() != full {
			t.Fatalf("final Solve = %v, full rank %v", !full, full)
		}
		if !dat.Complete() {
			if _, err := dat.Data(); err == nil {
				t.Fatal("Data of an incomplete decode succeeded")
			}
			return
		}
		blocks, err := dat.Data()
		if err != nil {
			t.Fatal(err)
		}
		for i := range orig {
			if !bytes.Equal(blocks[i], orig[i]) {
				t.Fatalf("original %d decoded wrong", i)
			}
		}
		for i := range coded {
			if !bytes.Equal(coded[i], pristine[i]) {
				t.Fatalf("received payload %d was modified", i)
			}
		}
	})
}
