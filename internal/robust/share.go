package robust

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Share envelope: every coded block is framed [magic u32][crc32c u32]
// [payload] at write time and verified at read time. LT decoding is
// pure XOR accumulation — a single flipped bit in a single accepted
// share silently corrupts every original block whose neighborhood
// includes it, and the read still "succeeds". The CRC turns silent
// poisoning into a rejected share: just another erasure, which the
// architecture tolerates by design. Checksumming is end-to-end
// (client seal → client verify), so it also catches transit
// corruption that server-side framing (blockstore.ChecksumStore)
// cannot see.

// shareMagic marks sealed shares so a mixed read (sealed segment,
// unsealed block or vice versa) fails loudly as corruption instead of
// feeding frame bytes to the decoder.
const shareMagic = 0x52534331 // "RSC1"

// shareCastagnoli is the CRC-32C table (hardware-accelerated widely).
var shareCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// shareOverhead is the envelope size in bytes.
const shareOverhead = 8

// openShare verifies and strips the envelope, returning
// ErrCorruptShare (wrapped with detail) on any mismatch.
func openShare(framed []byte) ([]byte, error) {
	if len(framed) < shareOverhead {
		return nil, fmt.Errorf("%w: envelope truncated (%d bytes)", ErrCorruptShare, len(framed))
	}
	if binary.BigEndian.Uint32(framed[0:4]) != shareMagic {
		return nil, fmt.Errorf("%w: envelope magic missing", ErrCorruptShare)
	}
	want := binary.BigEndian.Uint32(framed[4:8])
	data := framed[shareOverhead:]
	if crc32.Checksum(data, shareCastagnoli) != want {
		return nil, ErrCorruptShare
	}
	return data, nil
}
