package metadata

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func validSegment(name string) Segment {
	return Segment{
		Name: name,
		Size: 1000,
		Coding: Coding{
			Algorithm: "lt", K: 4, N: 8, BlockBytes: 256,
			C: 1, Delta: 0.5, GraphSeed: 7, GraphN: 10,
		},
		Placement: map[string][]int{
			"a:1": {0, 2, 4, 6},
			"b:1": {1, 3, 5, 7},
		},
	}
}

func TestCodingValidate(t *testing.T) {
	good := validSegment("x").Coding
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Coding){
		func(c *Coding) { c.Algorithm = "" },
		func(c *Coding) { c.K = 0 },
		func(c *Coding) { c.N = c.K - 1 },
		func(c *Coding) { c.BlockBytes = 0 },
		func(c *Coding) { c.GraphN = c.N - 1 },
	}
	for i, mut := range bad {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSegmentLifecycle(t *testing.T) {
	s := NewService()
	seg := validSegment("data1")
	if err := s.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSegment(seg); !errors.Is(err, ErrSegmentExists) {
		t.Fatalf("duplicate create = %v", err)
	}
	got, err := s.LookupSegment("data1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || got.Size != 1000 {
		t.Fatalf("lookup = %+v", got)
	}
	got.Size = 2000
	if err := s.UpdateSegment(got); err != nil {
		t.Fatal(err)
	}
	got2, _ := s.LookupSegment("data1")
	if got2.Version != 2 || got2.Size != 2000 {
		t.Fatalf("after update = %+v", got2)
	}
	if names := s.ListSegments(); len(names) != 1 || names[0] != "data1" {
		t.Fatalf("list = %v", names)
	}
	if err := s.DeleteSegment("data1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LookupSegment("data1"); !errors.Is(err, ErrSegmentNotFound) {
		t.Fatal("deleted segment still present")
	}
	if err := s.DeleteSegment("data1"); !errors.Is(err, ErrSegmentNotFound) {
		t.Fatal("double delete not reported")
	}
}

func TestCreateValidation(t *testing.T) {
	s := NewService()
	seg := validSegment("x")
	seg.Name = ""
	if err := s.CreateSegment(seg); err == nil {
		t.Fatal("empty name accepted")
	}
	seg = validSegment("x")
	seg.Size = -1
	if err := s.CreateSegment(seg); err == nil {
		t.Fatal("negative size accepted")
	}
	seg = validSegment("x")
	seg.Placement = map[string][]int{"a:1": {0, 1}}
	if err := s.CreateSegment(seg); err == nil {
		t.Fatal("under-placed segment accepted")
	}
	if err := s.UpdateSegment(validSegment("ghost")); !errors.Is(err, ErrSegmentNotFound) {
		t.Fatal("update of missing segment accepted")
	}
}

func TestLookupReturnsCopy(t *testing.T) {
	s := NewService()
	s.CreateSegment(validSegment("d"))
	a, _ := s.LookupSegment("d")
	a.Placement["a:1"][0] = 999
	b, _ := s.LookupSegment("d")
	if b.Placement["a:1"][0] == 999 {
		t.Fatal("lookup aliases internal state")
	}
}

func TestServerRegistry(t *testing.T) {
	s := NewService()
	if err := s.RegisterServer(Server{}); err == nil {
		t.Fatal("empty address accepted")
	}
	s.RegisterServer(Server{Addr: "b:1", ExpectedMBps: 20})
	s.RegisterServer(Server{Addr: "a:1", ExpectedMBps: 50})
	s.RegisterServer(Server{Addr: "a:1", ExpectedMBps: 60}) // update
	servers := s.Servers()
	if len(servers) != 2 || servers[0].Addr != "a:1" || servers[0].ExpectedMBps != 60 {
		t.Fatalf("servers = %+v", servers)
	}
	if err := s.UnregisterServer("a:1"); err != nil {
		t.Fatal(err)
	}
	if err := s.UnregisterServer("a:1"); !errors.Is(err, ErrServerNotFound) {
		t.Fatal("double unregister not reported")
	}
}

func TestReadLocksShared(t *testing.T) {
	s := NewService()
	ctx := context.Background()
	u1, err := s.LockRead(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	u2, err := s.LockRead(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	u1()
	u2()
}

func TestWriteLockExclusive(t *testing.T) {
	s := NewService()
	ctx := context.Background()
	unlock, err := s.LockWrite(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		u, err := s.LockRead(ctx, "f")
		if err != nil {
			t.Error(err)
		}
		close(acquired)
		u()
	}()
	select {
	case <-acquired:
		t.Fatal("read lock acquired under write lock")
	case <-time.After(50 * time.Millisecond):
	}
	unlock()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("read lock never acquired after unlock")
	}
}

func TestWaitingWriterBlocksNewReaders(t *testing.T) {
	// Writer preference: readers overlapping back to back must not
	// starve a writer, so a reader arriving after a writer queues
	// behind it.
	s := NewService()
	ctx := context.Background()
	u1, err := s.LockRead(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan func())
	go func() {
		u, err := s.LockWrite(ctx, "f")
		if err != nil {
			t.Error(err)
		}
		wrote <- u
	}()
	waitFor(t, func() bool { return s.lockFor("f").waitingWriters() == 1 })
	read := make(chan func())
	go func() {
		u, err := s.LockRead(ctx, "f")
		if err != nil {
			t.Error(err)
		}
		read <- u
	}()
	select {
	case <-read:
		t.Fatal("reader overtook a waiting writer")
	case <-time.After(50 * time.Millisecond):
	}
	u1()
	uw := <-wrote
	select {
	case <-read:
		t.Fatal("reader acquired under the write lock")
	case <-time.After(20 * time.Millisecond):
	}
	uw()
	select {
	case u := <-read:
		u()
	case <-time.After(time.Second):
		t.Fatal("queued reader never acquired after the writer left")
	}
}

func TestCanceledWriterReleasesQueuedReaders(t *testing.T) {
	s := NewService()
	ctx := context.Background()
	u1, err := s.LockRead(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	defer u1()
	wctx, cancel := context.WithCancel(ctx)
	wdone := make(chan error)
	go func() {
		_, err := s.LockWrite(wctx, "f")
		wdone <- err
	}()
	waitFor(t, func() bool { return s.lockFor("f").waitingWriters() == 1 })
	read := make(chan func())
	go func() {
		u, err := s.LockRead(ctx, "f")
		if err != nil {
			t.Error(err)
		}
		read <- u
	}()
	cancel()
	if err := <-wdone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled LockWrite = %v", err)
	}
	select {
	case u := <-read:
		u()
	case <-time.After(time.Second):
		t.Fatal("reader stayed queued behind a canceled writer")
	}
	if n := s.lockFor("f").waitingWriters(); n != 0 {
		t.Fatalf("waiting writers = %d after cancel", n)
	}
}

// waitingWriters reports how many writers are queued on the lock.
func (l *rwLock) waitingWriters() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiting
}

// waitFor polls cond until it holds or a second passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriteWaitsForReaders(t *testing.T) {
	s := NewService()
	ctx := context.Background()
	u1, _ := s.LockRead(ctx, "f")
	got := make(chan struct{})
	go func() {
		u, err := s.LockWrite(ctx, "f")
		if err != nil {
			t.Error(err)
		}
		close(got)
		u()
	}()
	select {
	case <-got:
		t.Fatal("write lock acquired under read lock")
	case <-time.After(50 * time.Millisecond):
	}
	u1()
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("write lock never acquired")
	}
}

func TestLockContextCancel(t *testing.T) {
	s := NewService()
	unlock, _ := s.LockWrite(context.Background(), "f")
	defer unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.LockWrite(ctx, "f"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestLocksIndependentAcrossNames(t *testing.T) {
	s := NewService()
	ctx := context.Background()
	u1, _ := s.LockWrite(ctx, "a")
	u2, err := s.LockWrite(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	u1()
	u2()
}

func TestConcurrentLockStress(t *testing.T) {
	s := NewService()
	ctx := context.Background()
	var counter, max int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if g%4 == 0 {
					u, err := s.LockWrite(ctx, "hot")
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					counter++
					if counter > max {
						max = counter
					}
					if counter != 1 {
						t.Error("writer not exclusive")
					}
					counter--
					mu.Unlock()
					u()
				} else {
					u, err := s.LockRead(ctx, "hot")
					if err != nil {
						t.Error(err)
						return
					}
					u()
				}
			}
		}(g)
	}
	wg.Wait()
}
