package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"testing/quick"
)

// Fuzz and property tests for the entry codecs: PUTSTREAM request
// entries and the result entries of DELETEBATCH responses and
// PUTSTREAM acks. The decoders face payloads from the network: they
// must reject oversized and truncated entries, never panic, and never
// refer to bytes outside the payload they were handed.

// putEntry is one PUTSTREAM entry as the store receives it.
type putEntry struct {
	index int
	data  []byte
}

// decodePutEntries runs a PUTSTREAM request payload through the
// server's entry assembler as one FIN chunk and drains it the way
// servePutStream does, including its check of the declared count.
func decodePutEntries(count int, payload []byte) ([]putEntry, error) {
	ps, _ := newTestPutStream(count, MaxFrame)
	if err := feedPutStream(ps, payload, true); err != nil {
		return nil, err
	}
	var out []putEntry
	for {
		idx, data, err := nextPutEntry(ps)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, putEntry{index: idx, data: data})
	}
	if len(out) != count {
		return nil, fmt.Errorf("stream carried %d entries, declared %d", len(out), count)
	}
	return out, nil
}

// validPutBatch builds a well-formed PUTSTREAM payload.
func validPutBatch(entries ...[]byte) (int, []byte) {
	var buf []byte
	for i, data := range entries {
		buf = appendPutEntryHeader(buf, i, len(data))
		buf = append(buf, data...)
	}
	return len(entries), buf
}

func FuzzDecodePutEntries(f *testing.F) {
	// Seeds: valid batches, an oversized declared length, a truncated
	// entry header, trailing garbage, and a hostile count.
	count, ok := validPutBatch([]byte("block-a"), []byte(""), []byte("block-c"))
	f.Add(count, ok)
	oversized := append([]byte(nil), ok...)
	binary.BigEndian.PutUint32(oversized[4:8], 1<<30) // entry 0 claims 1 GiB
	f.Add(count, oversized)
	f.Add(count, ok[:len(ok)-3])                     // truncated final entry
	f.Add(count, append(ok[:len(ok):len(ok)], 0xFF)) // trailing byte
	f.Add(1<<30, ok)                                 // count exceeds payload
	f.Add(-1, ok)                                    // negative count
	f.Add(2, []byte{})                               // count with empty payload

	f.Fuzz(func(t *testing.T, count int, payload []byte) {
		entries, err := decodePutEntries(count, payload)
		if err != nil {
			return
		}
		if len(entries) != count {
			t.Fatalf("decoded %d entries, declared %d", len(entries), count)
		}
		total := 0
		for _, e := range entries {
			if e.index < 0 {
				t.Fatalf("negative index %d accepted", e.index)
			}
			total += putEntryOverhead + len(e.data)
		}
		if total != len(payload) {
			t.Fatalf("entries cover %d of %d payload bytes", total, len(payload))
		}
	})
}

func FuzzDecodeBatchResults(f *testing.F) {
	var ok []byte
	ok = appendBatchResultHeader(ok, 3, statusOK, 5)
	ok = append(ok, "hello"...)
	ok = appendBatchResultHeader(ok, 9, statusNotFound, 0)
	f.Add(ok)
	oversized := append([]byte(nil), ok...)
	binary.BigEndian.PutUint32(oversized[5:9], 1<<31-1) // entry 0 claims 2 GiB
	f.Add(oversized)
	f.Add(ok[:len(ok)-4]) // truncated final header
	f.Add([]byte{0, 0})   // short fragment

	f.Fuzz(func(t *testing.T, payload []byte) {
		results, err := decodeBatchResults(payload)
		if err != nil {
			return
		}
		total := 0
		for _, r := range results {
			if r.index < 0 {
				t.Fatalf("negative index %d accepted", r.index)
			}
			total += batchResultOverhead + len(r.bytes)
		}
		if total != len(payload) {
			t.Fatalf("results cover %d of %d payload bytes", total, len(payload))
		}
	})
}

// TestQuickPutEntriesRoundTrip checks encode→decode is the identity
// for all valid PUTSTREAM payloads.
func TestQuickPutEntriesRoundTrip(t *testing.T) {
	f := func(blocks [][]byte) bool {
		var buf []byte
		for i, data := range blocks {
			buf = appendPutEntryHeader(buf, i*7, len(data))
			buf = append(buf, data...)
		}
		entries, err := decodePutEntries(len(blocks), buf)
		if err != nil || len(entries) != len(blocks) {
			return false
		}
		for i, e := range entries {
			if e.index != i*7 || !bytes.Equal(e.data, blocks[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBatchResultsRoundTrip checks the result entry codec the
// same way, cycling through every wire status.
func TestQuickBatchResultsRoundTrip(t *testing.T) {
	statuses := []byte{statusOK, statusErr, statusNotFound, statusBusy, statusUnsupported}
	f := func(bodies [][]byte) bool {
		var buf []byte
		for i, b := range bodies {
			buf = appendBatchResultHeader(buf, i, statuses[i%len(statuses)], len(b))
			buf = append(buf, b...)
		}
		results, err := decodeBatchResults(buf)
		if err != nil || len(results) != len(bodies) {
			return false
		}
		for i, r := range results {
			if r.index != i || r.status != statuses[i%len(statuses)] || !bytes.Equal(r.bytes, bodies[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
