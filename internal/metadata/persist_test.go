package metadata

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSaveFileAtomicReplacesWholly is the torn-snapshot regression
// test: a snapshot write that fails partway through must leave the
// previous snapshot untouched and readable, never a truncated or
// interleaved file — the failure mode of writing in place.
func TestSaveFileAtomicReplacesWholly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.json")

	s := NewService()
	if err := s.CreateSegment(validSegment("keep")); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A writer that emits half a snapshot and then fails, as a crash
	// or full disk mid-write would.
	torn := errors.New("torn write")
	err = SaveFileAtomic(path, func(w io.Writer) error {
		if _, werr := io.WriteString(w, `{"format_version":1,"segme`); werr != nil {
			return werr
		}
		return torn
	})
	if !errors.Is(err, torn) {
		t.Fatalf("SaveFileAtomic error = %v, want torn write", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("failed save mutated the snapshot:\nbefore: %q\nafter:  %q", before, after)
	}
	restored := NewService()
	if err := restored.LoadFile(path); err != nil {
		t.Fatalf("snapshot unreadable after failed save: %v", err)
	}
	if _, err := restored.LookupSegment("keep"); err != nil {
		t.Fatalf("segment lost after failed save: %v", err)
	}
}

// TestSaveFileAtomicNoTempLitter verifies both success and failure
// paths clean up their temp files, so crash-adjacent snapshots do not
// accumulate under the data directory.
func TestSaveFileAtomicNoTempLitter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.json")

	s := NewService()
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := SaveFileAtomic(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("SaveFileAtomic error = %v, want boom", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestSaveFileRoundTrip exercises the durable path end to end: state
// written with SaveFile is reloaded bit-identical by LoadFile.
func TestSaveFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.json")

	s := NewService()
	if err := s.CreateSegment(validSegment("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterServer(Server{Addr: "b:1", CapacityBytes: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	restored := NewService()
	if err := restored.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	seg, err := restored.LookupSegment("a")
	if err != nil {
		t.Fatal(err)
	}
	if seg.Size != 1000 || len(seg.Placement) != 2 {
		t.Fatalf("restored segment = %+v", seg)
	}
	if srvs := restored.Servers(); len(srvs) != 1 || srvs[0].Addr != "b:1" {
		t.Fatalf("restored servers = %+v", srvs)
	}
}

// TestLoadRefusesMalformedChunkTable checks that a snapshot goes
// through the same chunk-table checks as Create and Update: a table
// that does not sum to its segment, or a stride without chunks, fails
// the Load and leaves the service as it was.
func TestLoadRefusesMalformedChunkTable(t *testing.T) {
	bad := map[string]func(*Segment){
		"short table": func(s *Segment) {
			s.Chunks = []Chunk{{Size: 500, K: 2, N: 4, GraphSeed: 7, GraphN: 5}}
			s.ChunkStride = 5
		},
		"graph past stride": func(s *Segment) {
			s.Chunks = []Chunk{{Size: 1000, K: 4, N: 8, GraphSeed: 7, GraphN: 12}}
			s.ChunkStride = 10
		},
		"stride without chunks": func(s *Segment) { s.ChunkStride = 10 },
	}
	for name, mut := range bad {
		t.Run(name, func(t *testing.T) {
			seg := validSegment("a")
			mut(&seg)
			snap, err := json.Marshal(snapshot{FormatVersion: formatVersion, Segments: []Segment{seg}})
			if err != nil {
				t.Fatal(err)
			}
			s := NewService()
			if err := s.CreateSegment(validSegment("keep")); err != nil {
				t.Fatal(err)
			}
			if err := s.Load(bytes.NewReader(snap)); err == nil {
				t.Fatal("snapshot with a malformed chunk table loaded")
			}
			if _, err := s.LookupSegment("keep"); err != nil {
				t.Fatalf("failed Load replaced the state: %v", err)
			}
		})
	}
}
