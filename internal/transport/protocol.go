// Package transport implements the RobuSTore block protocol between
// clients and storage servers over TCP. The Client implements
// blockstore.Store, so the RobuSTore client library treats local and
// remote stores uniformly; the Server exposes any blockstore.Store on
// the network, optionally behind an admission controller (§5.4).
//
// There is one framing (DESIGN.md §12). A connection opens with a
// fixed 12-byte preface in each direction — [4B magic]["window"]
// ["max streams"] — carrying the client's proposed flow-control
// settings and the server's clamped answer; a server closes a
// connection whose first bytes are not a valid preface. After it,
// every byte is a multiplexed frame (all integers big-endian):
//
//	[4B frame length][1B kind][4B stream id][body...]
//
// and every exchange is its own stream (see mux.go). The REQ chunks
// of a stream concatenate to one request body:
//
//	request: [1B op][2B segment length][segment][4B block index]
//	         [payload...]
//
// and its RESP chunks to the response payload, with the status on
// every RESP frame. A GET response payload is the block; LIST and
// SCRUB response payloads are sequences of 4-byte indices (stored
// blocks and verification failures respectively); an error response
// payload is the message text.
//
// DELETEBATCH carries the entry count in the index field and a list
// of 4-byte indices as its payload; its response is one result entry
// per index:
//
//	result entry: [4B index][1B status][4B length][bytes]
//
// where bytes is the error message of a failed entry, so one bad
// block never fails its batch.
//
// PUTSTREAM is the pipelined write op: the index field declares the
// entry count and the payload is a sequence of entries
//
//	put entry: [4B index][4B length][data]
//
// which the server consumes incrementally as REQ chunks arrive — each
// entry is stored as soon as it is complete and acknowledged at once
// with one result entry streamed back as RESP chunks, so the client
// learns of durable blocks long before the stream finishes. Each entry
// is read straight into a buffer of its exact size, and flow-control
// credit returns as entries are stored (the oldest one's as it lands),
// bounding server buffering by the stream window plus one entry
// instead of the request size.
package transport

import (
	"encoding/binary"
	"fmt"
)

// Operation codes.
const (
	opPut         = byte(1)
	opGet         = byte(2)
	opDelete      = byte(3)
	opList        = byte(4)
	opPing        = byte(5)
	opScrub       = byte(6) // verify a segment in place, return bad indices
	opDeleteBatch = byte(9)
	opPutStream   = byte(12) // pipelined put with per-entry acks
)

// Response status codes.
const (
	statusOK          = byte(0)
	statusErr         = byte(1)
	statusNotFound    = byte(2)
	statusBusy        = byte(3) // admission controller refused the request
	statusUnsupported = byte(4) // server cannot perform the op (e.g. SCRUB without a ChecksumStore)
)

// MaxFrame bounds a frame's size and a buffered request or response
// body; it limits both allocation on malformed input and the largest
// storable block.
const MaxFrame = 64 << 20

// request is a decoded request body.
type request struct {
	op      byte
	segment string
	index   int
	payload []byte
}

// checkRequestHeader rejects a segment or index the request header
// cannot carry.
func checkRequestHeader(segment string, index int) error {
	if len(segment) > 0xFFFF {
		return fmt.Errorf("transport: segment name too long (%d bytes)", len(segment))
	}
	if index < 0 {
		return fmt.Errorf("transport: negative block index")
	}
	return nil
}

// requestHeaderLen is the fixed request header size before the
// payload: op + segment length + segment + index.
func requestHeaderLen(segment string) int { return 1 + 2 + len(segment) + 4 }

// appendRequestHeader appends a request header to dst; the payload
// travels as its own chunks. The segment must already be
// length-checked.
func appendRequestHeader(dst []byte, op byte, segment string, index int) []byte {
	var h [7]byte
	h[0] = op
	binary.BigEndian.PutUint16(h[1:3], uint16(len(segment)))
	dst = append(dst, h[:3]...)
	dst = append(dst, segment...)
	binary.BigEndian.PutUint32(h[3:7], uint32(index))
	return append(dst, h[3:7]...)
}

// peekRequest reports a request body's op and header length once
// enough of it has arrived to read them — how the mux server spots a
// PUTSTREAM stream before its body is complete.
func peekRequest(buf []byte) (op byte, hdrLen int, ok bool) {
	if len(buf) < 3 {
		return 0, 0, false
	}
	segLen := int(binary.BigEndian.Uint16(buf[1:3]))
	hdrLen = 3 + segLen + 4
	if len(buf) < hdrLen {
		return 0, 0, false
	}
	return buf[0], hdrLen, true
}

// requestHeaderNeed reports how many more bytes a partial request
// body needs before its header is complete (0 once it is): the
// fixed prefix first, then the segment and index it announces.
func requestHeaderNeed(buf []byte) int {
	if len(buf) < 3 {
		return 3 - len(buf)
	}
	hdrLen := 3 + int(binary.BigEndian.Uint16(buf[1:3])) + 4
	return max(hdrLen-len(buf), 0)
}

// decodeRequest parses a request frame body.
func decodeRequest(body []byte) (request, error) {
	if len(body) < 7 {
		return request{}, fmt.Errorf("transport: short request frame (%d bytes)", len(body))
	}
	op := body[0]
	segLen := int(binary.BigEndian.Uint16(body[1:3]))
	if len(body) < 3+segLen+4 {
		return request{}, fmt.Errorf("transport: truncated request frame")
	}
	seg := string(body[3 : 3+segLen])
	idx := int(binary.BigEndian.Uint32(body[3+segLen : 3+segLen+4]))
	payload := body[3+segLen+4:]
	return request{op: op, segment: seg, index: idx, payload: payload}, nil
}

// encodeIndices packs a LIST response payload.
func encodeIndices(indices []int) []byte {
	out := make([]byte, 4*len(indices))
	for i, idx := range indices {
		binary.BigEndian.PutUint32(out[4*i:], uint32(idx))
	}
	return out
}

// decodeIndices unpacks a LIST response payload.
func decodeIndices(payload []byte) ([]int, error) {
	if len(payload)%4 != 0 {
		return nil, fmt.Errorf("transport: malformed index list (%d bytes)", len(payload))
	}
	out := make([]int, len(payload)/4)
	for i := range out {
		out[i] = int(binary.BigEndian.Uint32(payload[4*i:]))
	}
	return out, nil
}

// putEntryOverhead is the per-entry header size in a PUTSTREAM
// request: [4B index][4B length].
const putEntryOverhead = 8

// appendPutEntryHeader appends one PUTSTREAM entry header to dst; the
// entry's data travels as its own chunk.
func appendPutEntryHeader(dst []byte, index, dataLen int) []byte {
	var h [putEntryOverhead]byte
	binary.BigEndian.PutUint32(h[0:4], uint32(index))
	binary.BigEndian.PutUint32(h[4:8], uint32(dataLen))
	return append(dst, h[:]...)
}

// batchResult is one decoded result entry (a DELETEBATCH response or a
// PUTSTREAM ack). bytes aliases the response payload: the error
// message of a failed entry, empty otherwise.
type batchResult struct {
	index  int
	status byte
	bytes  []byte
}

// batchResultOverhead is the result entry header size:
// [4B index][1B status][4B length].
const batchResultOverhead = 9

// appendBatchResultHeader appends one result entry header to dst.
func appendBatchResultHeader(dst []byte, index int, status byte, n int) []byte {
	var h [batchResultOverhead]byte
	binary.BigEndian.PutUint32(h[0:4], uint32(index))
	h[4] = status
	binary.BigEndian.PutUint32(h[5:9], uint32(n))
	return append(dst, h[:]...)
}

// decodeBatchResults parses a DELETEBATCH response payload.
func decodeBatchResults(payload []byte) ([]batchResult, error) {
	out := make([]batchResult, 0, len(payload)/batchResultOverhead)
	for len(payload) > 0 {
		if len(payload) < batchResultOverhead {
			return nil, fmt.Errorf("transport: truncated batch result header (%d bytes)", len(payload))
		}
		idx := int(binary.BigEndian.Uint32(payload[0:4]))
		status := payload[4]
		n := int(binary.BigEndian.Uint32(payload[5:9]))
		payload = payload[batchResultOverhead:]
		if idx < 0 || n < 0 || n > len(payload) {
			return nil, fmt.Errorf("transport: oversized batch result (%d bytes)", n)
		}
		out = append(out, batchResult{index: idx, status: status, bytes: payload[:n]})
		payload = payload[n:]
	}
	return out, nil
}
