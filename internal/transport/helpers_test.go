package transport

import (
	"bytes"
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

// writeFrame writes one length-prefixed frame built from the given
// chunks, with no size check — how hand-rolled test peers put raw and
// malformed frames on the wire.
func writeFrame(w io.Writer, chunks ...[]byte) error {
	body := bytes.Join(chunks, nil)
	_, err := w.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...))
	return err
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
