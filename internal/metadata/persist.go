package metadata

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// snapshot is the serialized form of a Service.
type snapshot struct {
	FormatVersion int       `json:"format_version"`
	Segments      []Segment `json:"segments"`
	Servers       []Server  `json:"servers"`
}

const formatVersion = 1

// Save writes the service state as JSON. Locks are runtime state and
// are not persisted.
func (s *Service) Save(w io.Writer) error {
	s.mu.Lock()
	snap := snapshot{FormatVersion: formatVersion}
	for _, seg := range s.segments {
		cp := *seg
		cp.Placement = clonePlacement(seg.Placement)
		snap.Segments = append(snap.Segments, cp)
	}
	for _, srv := range s.servers {
		snap.Servers = append(snap.Servers, srv)
	}
	s.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Load replaces the service state from a JSON snapshot.
func (s *Service) Load(r io.Reader) error {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("metadata: decoding snapshot: %w", err)
	}
	if snap.FormatVersion != formatVersion {
		return fmt.Errorf("metadata: unsupported snapshot version %d", snap.FormatVersion)
	}
	segments := make(map[string]*Segment, len(snap.Segments))
	for i := range snap.Segments {
		seg := snap.Segments[i]
		if err := seg.validate(); err != nil {
			return fmt.Errorf("metadata: snapshot segment %q: %w", seg.Name, err)
		}
		segments[seg.Name] = &seg
	}
	servers := make(map[string]Server, len(snap.Servers))
	for _, srv := range snap.Servers {
		servers[srv.Addr] = srv
	}
	s.mu.Lock()
	s.segments = segments
	s.servers = servers
	s.mu.Unlock()
	return nil
}

// SaveFile atomically and durably writes the snapshot to path: temp
// file, fsync, rename, then fsync of the parent directory — the same
// discipline as FileStore.Put. Without the file sync a crash after
// rename can surface a complete-looking snapshot full of zeroes;
// without the directory sync the rename itself can vanish.
func (s *Service) SaveFile(path string) error {
	return SaveFileAtomic(path, s.Save)
}

// SaveFileAtomic writes via a temp file in path's directory, fsyncs
// the file, renames it over path, and fsyncs the directory. The
// replica package reuses it for hard-state and snapshot writes.
func SaveFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a
// crash. Filesystems that cannot sync directories are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("metadata: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("metadata: %w", err)
	}
	return nil
}

// LoadFile reads a snapshot from path; a missing file leaves the
// service empty and returns os.ErrNotExist.
func (s *Service) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(f)
}
