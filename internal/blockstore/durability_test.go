package blockstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestFileStoreTornTempInvisible simulates a crash mid-Put: a
// partially written temp file stranded in the segment directory must
// never surface through Get or List — only fully renamed ".blk"
// entries are real.
func TestFileStoreTornTempInvisible(t *testing.T) {
	root := t.TempDir()
	fs, err := NewFileStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ctx := context.Background()
	if err := fs.Put(ctx, "seg", 0, []byte("durable")); err != nil {
		t.Fatal(err)
	}

	// Strand a torn temp file the way an interrupted Put would: same
	// directory, same ".put-" prefix, partial payload.
	segDir := fs.segDir("seg")
	torn := filepath.Join(segDir, ".put-interrupted")
	if err := os.WriteFile(torn, []byte("half-wri"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a torn rename-target collision candidate: an unparsable name
	// must be ignored too.
	if err := os.WriteFile(filepath.Join(segDir, "junk.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := fs.List(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("List = %v, want [0]: torn temp leaked into listing", got)
	}
	b, err := fs.Get(ctx, "seg", 0)
	if err != nil || !bytes.Equal(b, []byte("durable")) {
		t.Fatalf("Get = %q, %v", b, err)
	}
	// The torn index itself was never committed.
	if _, err := fs.Get(ctx, "seg", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(uncommitted) = %v, want ErrNotFound", err)
	}

	// A failed Put cleans its temp file up even on sync/rename paths:
	// after a successful Put no ".put-*" residue remains.
	if err := fs.Put(ctx, "seg", 2, []byte("more")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(segDir)
	if err != nil {
		t.Fatal(err)
	}
	temps := 0
	for _, e := range entries {
		if e.Name() != ".put-interrupted" && len(e.Name()) > 4 && e.Name()[:5] == ".put-" {
			temps++
		}
	}
	if temps != 0 {
		t.Fatalf("%d temp files left behind by successful Puts", temps)
	}
}

// TestStoresHonorCanceledContext drives every Store implementation
// (and the checksum wrapper's scrub) through every operation with an
// already-canceled context: each must refuse with context.Canceled
// and mutate nothing.
func TestStoresHonorCanceledContext(t *testing.T) {
	newFile := func(t *testing.T) Store {
		fs, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	stores := []struct {
		name string
		mk   func(t *testing.T) Store
	}{
		{"mem", func(t *testing.T) Store { return NewMemStore() }},
		{"file", newFile},
		{"checksum-mem", func(t *testing.T) Store { return WithChecksums(NewMemStore()) }},
		{"checksum-file", func(t *testing.T) Store { return WithChecksums(newFile(t)) }},
	}
	for _, tc := range stores {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk(t)
			defer s.Close()
			live := context.Background()
			if err := s.Put(live, "seg", 0, seal("seg", 0, []byte("x"))); err != nil {
				t.Fatal(err)
			}
			canceled, cancel := context.WithCancel(context.Background())
			cancel()

			if err := s.Put(canceled, "seg", 1, seal("seg", 1, []byte("y"))); !errors.Is(err, context.Canceled) {
				t.Errorf("Put err = %v, want context.Canceled", err)
			}
			if _, err := s.Get(canceled, "seg", 0); !errors.Is(err, context.Canceled) {
				t.Errorf("Get err = %v, want context.Canceled", err)
			}
			if err := s.Delete(canceled, "seg", 0); !errors.Is(err, context.Canceled) {
				t.Errorf("Delete err = %v, want context.Canceled", err)
			}
			if _, err := s.List(canceled, "seg"); !errors.Is(err, context.Canceled) {
				t.Errorf("List err = %v, want context.Canceled", err)
			}
			if sc, ok := s.(Scrubber); ok {
				if _, err := sc.Scrub(canceled, "seg"); !errors.Is(err, context.Canceled) {
					t.Errorf("Scrub err = %v, want context.Canceled", err)
				}
			}

			// Nothing changed: the canceled Put didn't land, the canceled
			// Delete didn't fire.
			got, err := s.List(live, "seg")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != 0 {
				t.Fatalf("List = %v after canceled ops, want [0]", got)
			}
		})
	}
}
