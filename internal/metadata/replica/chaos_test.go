package replica

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metadata"
)

// Chaos suite: the failure drills the replicated metadata plane
// exists for. The invariant asserted throughout is the tentpole
// guarantee — no acknowledged write is ever lost, under leader
// kills, partitions, and sustained fault injection on the consensus
// links. Writes whose result was unknown (leadership lost mid-commit,
// timeouts) are allowed to land or not; acknowledged ones are not
// negotiable.

// failoverClient dials the whole group with the client's own retry
// and failover policy.
func failoverClient(t *testing.T, c *cluster) *metadata.RemoteClient {
	t.Helper()
	client, err := metadata.DialRemoteMulti(c.clientAddrs(), metadata.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// verifyAcked asserts every acknowledged segment name is readable
// through the group. Individual lookups retry under a deadline: a
// transient read failure (read-index probe severed by still-active
// fault injection) is not loss — only a persistently unreadable
// acked write is.
func verifyAcked(t *testing.T, c *cluster, acked []string) {
	t.Helper()
	c.waitLeader()
	client := failoverClient(t, c)
	for _, name := range acked {
		deadline := time.Now().Add(10 * time.Second)
		var err error
		for {
			if _, err = client.LookupSegment(name); err == nil {
				break
			}
			if !time.Now().Before(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			t.Errorf("acked write %q lost: %v", name, err)
		}
	}
}

// TestChaosLeaderKillClientFailover kills the leader mid-stream —
// twice — while a failover client keeps writing through the group.
// Every acknowledged write must survive re-election, and the killed
// members must rejoin and catch up.
func TestChaosLeaderKillClientFailover(t *testing.T) {
	c := newCluster(t, 3)
	c.startAll()
	c.waitLeader()
	client := failoverClient(t, c)

	var acked []string
	killed := make([]int, 0, 2)
	for i := 0; i < 30; i++ {
		if i == 10 || i == 20 {
			if len(killed) > 0 {
				// Bring the previous victim back first so a quorum
				// always survives the next kill.
				c.start(killed[len(killed)-1])
			}
			lead := c.waitLeader()
			c.stop(lead)
			killed = append(killed, lead)
		}
		name := fmt.Sprintf("kill-%d", i)
		err := client.CreateSegment(testSegment(name))
		switch {
		case err == nil:
			acked = append(acked, name)
		case errors.Is(err, metadata.ErrSegmentExists):
			// A retried create whose first attempt landed: the write is
			// durable, count it.
			acked = append(acked, name)
		default:
			t.Logf("write %s unacknowledged: %v", name, err)
		}
	}
	if len(acked) < 20 {
		t.Fatalf("only %d/30 writes acknowledged through two leader kills", len(acked))
	}
	verifyAcked(t, c, acked)

	// The killed members rejoin and converge.
	for _, id := range killed {
		if c.get(id) == nil {
			c.start(id)
		}
	}
	lead := c.waitLeader()
	applied := c.get(lead).node.Status().Applied
	for _, id := range killed {
		c.waitApplied(id, applied)
	}
}

// TestChaosLeaderKillMidCommit runs concurrent writers while the
// leader dies, maximizing the chance of kills landing between log
// append and commit acknowledgement.
func TestChaosLeaderKillMidCommit(t *testing.T) {
	c := newCluster(t, 3)
	c.startAll()
	c.waitLeader()

	const writers = 3
	const perWriter = 10
	var mu sync.Mutex
	var acked []string
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writer := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := failoverClient(t, c)
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("mid-%d-%d", writer, i)
				err := client.CreateSegment(testSegment(name))
				if err == nil || errors.Is(err, metadata.ErrSegmentExists) {
					mu.Lock()
					acked = append(acked, name)
					mu.Unlock()
				}
			}
		}()
	}
	// Kill the leader while the writers are in flight.
	time.Sleep(30 * time.Millisecond)
	lead := c.waitLeader()
	c.stop(lead)
	wg.Wait()

	mu.Lock()
	got := append([]string(nil), acked...)
	mu.Unlock()
	if len(got) == 0 {
		t.Fatal("no writes acknowledged at all")
	}
	verifyAcked(t, c, got)
}

// TestChaosPartitionedFollower cuts one follower off the consensus
// plane: the majority keeps serving, the islanded follower refuses to
// serve stale reads, and after healing it converges.
func TestChaosPartitionedFollower(t *testing.T) {
	c := newCluster(t, 3)
	c.startAll()
	lead := c.waitLeader()
	var follower int
	for _, p := range c.peers {
		if p.ID != lead {
			follower = p.ID
			break
		}
	}
	c.part.isolate(follower, true)

	ln := c.get(lead).node
	for i := 0; i < 5; i++ {
		if err := ln.CreateSegment(testSegment(fmt.Sprintf("part-%d", i))); err != nil {
			t.Fatalf("write with one follower partitioned = %v", err)
		}
	}

	// The partitioned follower must not serve the read locally — its
	// read-index round cannot reach the leader.
	fn := c.get(follower).node
	if _, err := fn.LookupSegment("part-0"); err == nil {
		t.Fatal("partitioned follower served a read it cannot certify")
	}

	c.part.isolate(follower, false)
	c.waitApplied(follower, ln.Status().Applied)
	if _, err := fn.LookupSegment("part-4"); err != nil {
		t.Fatalf("healed follower read = %v", err)
	}
}

// TestChaosPartitionedLeaderReelection cuts the leader off instead:
// the remaining majority elects a fresh leader and keeps accepting
// writes; the deposed leader rejoins on heal and converges without
// losing anything acknowledged.
func TestChaosPartitionedLeaderReelection(t *testing.T) {
	c := newCluster(t, 3)
	c.startAll()
	old := c.waitLeader()
	c.part.isolate(old, true)

	// Wait for a majority-side leader (the old one may still believe).
	deadline := time.Now().Add(10 * time.Second)
	newLead := 0
	for newLead == 0 && time.Now().Before(deadline) {
		for _, p := range c.peers {
			if p.ID != old && c.get(p.ID).node.IsLeader() {
				newLead = p.ID
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if newLead == 0 {
		t.Fatal("no majority-side re-election")
	}
	nl := c.get(newLead).node
	if err := nl.CreateSegment(testSegment("after-partition")); err != nil {
		t.Fatalf("write on majority side = %v", err)
	}

	c.part.isolate(old, false)
	c.waitApplied(old, nl.Status().Applied)
	if _, err := c.get(old).node.LookupSegment("after-partition"); err != nil {
		t.Fatalf("healed old leader read = %v", err)
	}
}

// TestChaosChurnUnderFaults is the full drill: consensus links under
// seeded fault injection (latency, resets, short reads), concurrent
// failover clients, and rolling member restarts. Soak mode
// (ROBUSTORE_SOAK=1) scales the churn up for the nightly run.
func TestChaosChurnUnderFaults(t *testing.T) {
	perWriter := 8
	restarts := 2
	if os.Getenv("ROBUSTORE_SOAK") != "" {
		perWriter = 60
		restarts = 10
	}

	c := newCluster(t, 3)
	inj := faultinject.New(42, faultinject.Config{
		Latency:       time.Millisecond,
		ResetProb:     0.04,
		ShortReadProb: 0.02,
	}, nil)
	c.wrapRaft = func(ln net.Listener) net.Listener {
		return faultinject.WrapListener(ln, inj)
	}
	c.startAll()
	c.waitLeader()

	const writers = 3
	var mu sync.Mutex
	var acked []string
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writer := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := failoverClient(t, c)
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("churn-%d-%d", writer, i)
				err := client.CreateSegment(testSegment(name))
				if err == nil || errors.Is(err, metadata.ErrSegmentExists) {
					mu.Lock()
					acked = append(acked, name)
					mu.Unlock()
				}
			}
		}()
	}
	// Rolling restarts: kill whoever leads, let the group re-elect,
	// bring the member back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < restarts; r++ {
			select {
			case <-stop:
				return
			case <-time.After(150 * time.Millisecond):
			}
			lead := c.waitLeader()
			c.stop(lead)
			c.waitLeader()
			c.start(lead)
		}
	}()
	wgDone := make(chan struct{})
	go func() { defer close(wgDone); wg.Wait() }()
	select {
	case <-wgDone:
	case <-time.After(90 * time.Second):
		close(stop)
		<-wgDone
		t.Fatal("churn did not finish in time")
	}
	close(stop)

	mu.Lock()
	got := append([]string(nil), acked...)
	mu.Unlock()
	if len(got) == 0 {
		t.Fatal("no writes acknowledged under churn")
	}
	t.Logf("churn: %d/%d writes acknowledged across %d leader restarts", len(got), writers*perWriter, restarts)
	verifyAcked(t, c, got)

	// Every member converges once the storm stops.
	lead := c.waitLeader()
	applied := c.get(lead).node.Status().Applied
	for _, p := range c.peers {
		c.waitApplied(p.ID, applied)
	}
}
