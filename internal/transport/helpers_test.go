package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// readFrame reads one length-prefixed frame body — the raw view of
// the wire that hand-rolled test peers use.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// encodeRequest serializes a request body the way the client does:
// a checked header followed by the payload.
func encodeRequest(op byte, segment string, index int, payload []byte) ([]byte, error) {
	if err := checkRequestHeader(segment, index); err != nil {
		return nil, err
	}
	body := appendRequestHeader(make([]byte, 0, requestHeaderLen(segment)+len(payload)), op, segment, index)
	return append(body, payload...), nil
}
