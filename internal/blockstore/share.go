package blockstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Share envelope: every coded block is stored as [magic "RSC2" u32]
// [CRC-32C u32][payload], the CRC over the segment name, the block's
// global coded index (u64 big-endian) and the payload. Sealed by the
// writer and opened by the reader, it turns rot on disk or in transit,
// and an intact share served under another index or segment, into one
// more erasure instead of XOR-poisoning every original it covers.
// Servers compute no CRC on the data path: ChecksumStore checks the
// header on Put and verifies whole envelopes only when scrubbed.

const (
	// ShareOverhead is the envelope's size in bytes.
	ShareOverhead = 8
	// ShareFormat numbers the envelope SealShare writes, as recorded
	// in metadata.Coding.ShareFormat; readers open no other.
	ShareFormat = 2

	shareMagic = 0x52534332 // "RSC2"
	rsc1Magic  = 0x52534331 // "RSC1": CRC over the payload only; read by UpgradeShare alone
)

// castagnoli is the CRC-32C table (hardware-accelerated on most CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// shareCRC is the checksum of payload stored as block index of segment
// name. The name and index go through the table byte by byte: handing
// them to crc32.Update would move them to the heap on every call.
func shareCRC(payload []byte, name string, index int) uint32 {
	crc := ^uint32(0)
	for i := 0; i < len(name); i++ {
		crc = castagnoli[byte(crc)^name[i]] ^ crc>>8
	}
	for shift := 56; shift >= 0; shift -= 8 {
		crc = castagnoli[byte(crc)^byte(uint64(index)>>shift)] ^ crc>>8
	}
	return crc32.Update(^crc, castagnoli, payload)
}

// SealShare writes the envelope header over share[:ShareOverhead] for
// the payload share[ShareOverhead:] as block index of segment name,
// and returns share.
func SealShare(share []byte, name string, index int) []byte {
	binary.BigEndian.PutUint32(share[0:4], shareMagic)
	binary.BigEndian.PutUint32(share[4:8], shareCRC(share[ShareOverhead:], name, index))
	return share
}

// OpenShare verifies that share is the sealed block index of segment
// name and returns its payload, which aliases share. Any mismatch is
// an error wrapping ErrCorrupt.
func OpenShare(share []byte, name string, index int) ([]byte, error) {
	if err := checkShareHeader(share); err != nil {
		return nil, err
	}
	if shareCRC(share[ShareOverhead:], name, index) != binary.BigEndian.Uint32(share[4:8]) {
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

// UpgradeShare returns stored, block index of segment name with
// blockBytes of payload, in the current format. An RSC1 share whose
// payload CRC matches, or a bare block of exactly blockBytes, comes
// back resealed in a new buffer with changed set. Anything else comes
// back as it is: a current share to keep, or a bad one for the first
// scrub to report.
func UpgradeShare(stored []byte, blockBytes int64, name string, index int) (share []byte, changed bool) {
	payload := stored
	if int64(len(stored)) == ShareOverhead+blockBytes {
		payload = stored[ShareOverhead:]
		if binary.BigEndian.Uint32(stored[0:4]) != rsc1Magic ||
			crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(stored[4:8]) {
			return stored, false
		}
	} else if int64(len(stored)) != blockBytes {
		return stored, false
	}
	share = make([]byte, ShareOverhead+len(payload))
	copy(share[ShareOverhead:], payload)
	return SealShare(share, name, index), true
}
