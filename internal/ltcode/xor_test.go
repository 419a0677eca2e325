package ltcode

import (
	"bytes"
	"math/rand"
	"testing"
)

// xorNaive is the reference implementation the wide kernel must match
// bit-for-bit at every length and offset.
func xorNaive(src, dst []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

func TestXorWordsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 2, 7, 8, 9, 15, 16, 31, 63, 64, 65, 127, 128, 129, 1 << 10, 1<<16 + 13}
	for _, n := range lengths {
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		want := append([]byte(nil), dst...)
		xorNaive(src, want)
		xorWords(src, dst)
		if !bytes.Equal(dst, want) {
			t.Fatalf("xorWords mismatch at length %d", n)
		}
	}
}

func TestXorWordsUnalignedTail(t *testing.T) {
	// Exercise every split of main loop, word tail, and byte tail by
	// offsetting into a shared backing array.
	rng := rand.New(rand.NewSource(11))
	backing := make([]byte, 512)
	rng.Read(backing)
	for off := 0; off < 16; off++ {
		for n := 0; n < 200; n++ {
			src := make([]byte, n)
			copy(src, backing[off:])
			dst := make([]byte, n)
			rng.Read(dst)
			want := append([]byte(nil), dst...)
			xorNaive(src, want)
			xorWords(src, dst)
			if !bytes.Equal(dst, want) {
				t.Fatalf("xorWords mismatch at offset %d length %d", off, n)
			}
		}
	}
}

func TestXorWordsSelfIdentity(t *testing.T) {
	// x ^= x must zero the buffer (identical aliasing is allowed).
	buf := make([]byte, 777)
	rand.New(rand.NewSource(3)).Read(buf)
	xorWords(buf, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("self-xor left non-zero byte %#x at %d", b, i)
		}
	}
}

func TestXorWordsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("xorWords accepted mismatched lengths")
		}
	}()
	xorWords(make([]byte, 8), make([]byte, 9))
}

// TestEncodeBlockIntoMatchesNaive checks the fused encode — first two
// neighbours XORed straight into dst — against a byte-wise reference
// at degrees 1, 2, 3 and K and at lengths that exercise every tail of
// the kernel. dst starts as garbage, so a step that reads it instead
// of overwriting it shows.
func TestEncodeBlockIntoMatchesNaive(t *testing.T) {
	const k = 6
	g := &Graph{K: k, N: 4, Neighbors: [][]int32{{4}, {0, 5}, {3, 1, 2}, {5, 4, 3, 2, 1, 0}}}
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 7, 64, 4095, 256 << 10} {
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, n)
			rng.Read(data[i])
		}
		for i, nb := range g.Neighbors {
			want := make([]byte, n)
			for _, j := range nb {
				xorNaive(data[j], want)
			}
			dst := make([]byte, n)
			rng.Read(dst)
			if got := g.EncodeBlockInto(dst, i, data); !bytes.Equal(got, want) {
				t.Fatalf("degree %d, length %d: encode differs from the byte-wise XOR", len(nb), n)
			}
		}
	}
}

func BenchmarkXorWords(b *testing.B) {
	for _, n := range []int{1 << 10, 64 << 10, 1 << 20} {
		b.Run(sizeLabel(n), func(b *testing.B) {
			src := make([]byte, n)
			dst := make([]byte, n)
			rand.New(rand.NewSource(1)).Read(src)
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xorWords(src, dst)
			}
		})
	}
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return "1MiB"
	case n >= 64<<10:
		return "64KiB"
	default:
		return "1KiB"
	}
}
