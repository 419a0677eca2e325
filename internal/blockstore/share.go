package blockstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Share envelope: every coded block is stored as [magic "RSC1" u32]
// [CRC-32C of payload u32][payload]. The writer seals it and the reader
// opens it, so the check is end to end — rot on disk and corruption in
// transit alike turn into a rejected share, one more erasure, instead
// of XOR-poisoning every original the share covers. Servers compute no
// CRC on the data path: ChecksumStore checks the header on Put and
// verifies whole envelopes only when scrubbed.

// ShareOverhead is the envelope's size in bytes.
const ShareOverhead = 8

// shareMagic marks a sealed share: a bare block fails loudly instead
// of reaching a decoder as data.
const shareMagic = 0x52534331 // "RSC1"

// castagnoli is the CRC-32C table (hardware-accelerated on most CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SealShare writes the envelope header over share[:ShareOverhead] for
// the payload share[ShareOverhead:] and returns share.
func SealShare(share []byte) []byte {
	binary.BigEndian.PutUint32(share[0:4], shareMagic)
	binary.BigEndian.PutUint32(share[4:8], crc32.Checksum(share[ShareOverhead:], castagnoli))
	return share
}

// OpenShare verifies a sealed share and returns its payload, which
// aliases share. Any mismatch is an error wrapping ErrCorrupt.
func OpenShare(share []byte) ([]byte, error) {
	if err := checkShareHeader(share); err != nil {
		return nil, err
	}
	if crc32.Checksum(share[ShareOverhead:], castagnoli) != binary.BigEndian.Uint32(share[4:8]) {
		return nil, ErrCorrupt
	}
	return share[ShareOverhead:], nil
}

// checkShareHeader reports whether share is long enough to hold the
// envelope and starts with its magic; it reads no payload byte.
func checkShareHeader(share []byte) error {
	if len(share) < ShareOverhead {
		return fmt.Errorf("%w: envelope truncated (%d bytes)", ErrCorrupt, len(share))
	}
	if binary.BigEndian.Uint32(share[0:4]) != shareMagic {
		return fmt.Errorf("%w: envelope magic missing", ErrCorrupt)
	}
	return nil
}
