package ltcode

import "crypto/subtle"

// xorWords sets dst[i] ^= src[i] with the standard library's
// crypto/subtle.XORBytes, SIMD assembly on amd64 and arm64 (DESIGN.md
// §12). The LT peeling decoder is little more than this loop applied
// once per edge of the coding graph, which makes it the
// decode-bandwidth ceiling once I/O is pipelined. dst and src must
// have equal length and must not alias unless identical.
func xorWords(src, dst []byte) {
	if len(src) != len(dst) {
		panic("ltcode: xorWords length mismatch")
	}
	subtle.XORBytes(dst, dst, src)
}

// xorPair sets dst = a ^ b in one pass: the first step of an encode
// or decode sum, fused with the copy of its first term. All three must
// have equal length.
func xorPair(dst, a, b []byte) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("ltcode: xorPair length mismatch")
	}
	subtle.XORBytes(dst, a, b)
}

// xorSum accumulates a decoder sum — a received payload plus XOR
// terms — into out without first copying the payload: the first term
// is fused with it through xorPair, and a sum with no terms is a plain
// copy. out must be as long as the payload.
type xorSum struct{ out, first []byte }

// add XORs one term into the sum.
func (s *xorSum) add(term []byte) {
	if s.first == nil {
		xorWords(term, s.out)
		return
	}
	xorPair(s.out, s.first, term)
	s.first = nil
}

// result returns the finished sum.
func (s *xorSum) result() []byte {
	if s.first != nil {
		copy(s.out, s.first)
	}
	return s.out
}
