package metadata

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func startNetworkService(t *testing.T) (*Service, *RemoteClient) {
	t.Helper()
	svc := NewService()
	srv := NewNetworkServer(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	client, err := DialRemote(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return svc, client
}

func TestRemoteSegmentLifecycle(t *testing.T) {
	_, rc := startNetworkService(t)
	seg := validSegment("remote1")
	if err := rc.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	if err := rc.CreateSegment(seg); !errors.Is(err, ErrSegmentExists) {
		t.Fatalf("duplicate create = %v, want ErrSegmentExists", err)
	}
	got, err := rc.LookupSegment("remote1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || got.Size != seg.Size || len(got.Placement) != 2 || len(got.Chunks) != 1 {
		t.Fatalf("remote lookup = %+v", got)
	}
	// The chunk table sums to the segment: resizing one resizes both.
	got.Size, got.Chunks[0].Size = 4242, 4242
	if err := rc.UpdateSegment(got); err != nil {
		t.Fatal(err)
	}
	got2, _ := rc.LookupSegment("remote1")
	if got2.Size != 4242 || got2.Version != 2 {
		t.Fatalf("after update = %+v", got2)
	}
	names := rc.ListSegments()
	if len(names) != 1 || names[0] != "remote1" {
		t.Fatalf("list = %v", names)
	}
	if err := rc.DeleteSegment("remote1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.LookupSegment("remote1"); !errors.Is(err, ErrSegmentNotFound) {
		t.Fatalf("lookup after delete = %v, want ErrSegmentNotFound", err)
	}
}

func TestRemoteServerRegistry(t *testing.T) {
	_, rc := startNetworkService(t)
	if err := rc.RegisterServer(Server{Addr: "a:1", ExpectedMBps: 10, Zone: "z"}); err != nil {
		t.Fatal(err)
	}
	servers := rc.Servers()
	if len(servers) != 1 || servers[0].Addr != "a:1" || servers[0].Zone != "z" {
		t.Fatalf("servers = %+v", servers)
	}
	if err := rc.UnregisterServer("a:1"); err != nil {
		t.Fatal(err)
	}
	if err := rc.UnregisterServer("a:1"); !errors.Is(err, ErrServerNotFound) {
		t.Fatalf("double unregister = %v", err)
	}
}

func TestRemoteLocksExcludeLocalAndRemote(t *testing.T) {
	svc, rc := startNetworkService(t)
	ctx := context.Background()
	unlock, err := rc.LockWrite(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	// A local (in-process) reader must block behind the remote writer.
	acquired := make(chan struct{})
	go func() {
		u, err := svc.LockRead(ctx, "f")
		if err == nil {
			close(acquired)
			u()
		}
	}()
	select {
	case <-acquired:
		t.Fatal("local read lock acquired under remote write lock")
	case <-time.After(50 * time.Millisecond):
	}
	unlock()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("local read lock never acquired after remote unlock")
	}
}

func TestRemoteLockWaitsForGrant(t *testing.T) {
	svc, rc := startNetworkService(t)
	ctx := context.Background()
	localUnlock, err := svc.LockWrite(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan func(), 1)
	go func() {
		u, err := rc.LockWrite(ctx, "g")
		if err == nil {
			got <- u
		}
	}()
	select {
	case <-got:
		t.Fatal("remote lock acquired while locally held")
	case <-time.After(50 * time.Millisecond):
	}
	localUnlock()
	select {
	case u := <-got:
		u()
	case <-time.After(2 * time.Second):
		t.Fatal("remote lock never granted")
	}
}

func TestRemoteLockContextCancel(t *testing.T) {
	svc, rc := startNetworkService(t)
	localUnlock, _ := svc.LockWrite(context.Background(), "h")
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	if _, err := rc.LockWrite(ctx, "h"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	localUnlock()
	// The abandoned grant must be auto-released; a fresh lock succeeds.
	u, err := rc.LockWrite(context.Background(), "h")
	if err != nil {
		t.Fatal(err)
	}
	u()
}

func TestRemoteConcurrentClients(t *testing.T) {
	_, rc := startNetworkService(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seg := validSegment("conc")
			seg.Name = seg.Name + string(rune('a'+g))
			if err := rc.CreateSegment(seg); err != nil {
				errCh <- err
				return
			}
			if _, err := rc.LookupSegment(seg.Name); err != nil {
				errCh <- err
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := len(rc.ListSegments()); got != 8 {
		t.Fatalf("segments = %d, want 8", got)
	}
}

func TestDialRemoteFailure(t *testing.T) {
	if _, err := DialRemote("127.0.0.1:1"); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	svc := NewService()
	svc.CreateSegment(validSegment("persist"))
	svc.RegisterServer(Server{Addr: "x:1"})
	path := t.TempDir() + "/meta.json"
	if err := svc.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored := NewService()
	if err := restored.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	seg, err := restored.LookupSegment("persist")
	if err != nil {
		t.Fatal(err)
	}
	if seg.Coding.K != 4 || len(seg.Placement) != 2 {
		t.Fatalf("restored segment = %+v", seg)
	}
	if len(restored.Servers()) != 1 {
		t.Fatal("server registry not restored")
	}
}

// chunklessLookups answers lookups as a server that stores records
// without chunk tables would, or with a corrupt table when bad is set.
type chunklessLookups struct {
	*Service
	bad bool
}

func (s chunklessLookups) LookupSegment(name string) (Segment, error) {
	seg, err := s.Service.LookupSegment(name)
	seg.Chunks, seg.ChunkStride = nil, 0
	if s.bad {
		seg.ChunkStride = 3
	}
	return seg, err
}

// TestRemoteLookupNormalizesRecord checks that a record read off the
// wire gets the same check and normalization as one written through
// Create, so a client never sees a chunkless or malformed record.
func TestRemoteLookupNormalizesRecord(t *testing.T) {
	for _, bad := range []bool{false, true} {
		svc := NewService()
		seg := validSegment("old")
		if err := svc.CreateSegment(seg); err != nil {
			t.Fatal(err)
		}
		_, addr := serveAPI(t, chunklessLookups{Service: svc, bad: bad})
		rc, err := DialRemote(addr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rc.LookupSegment("old")
		rc.Close()
		if bad {
			if err == nil {
				t.Fatal("lookup accepted a stride without chunks")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Chunks) != 1 || got.Chunks[0].GraphN != seg.Coding.GraphN || got.ChunkStride != seg.Coding.GraphN {
			t.Fatalf("remote lookup of a chunkless record = chunks %+v stride %d", got.Chunks, got.ChunkStride)
		}
	}
}
