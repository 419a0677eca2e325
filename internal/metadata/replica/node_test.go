package replica

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metadata"
)

// TestSingleNodeGroup: a one-member group degenerates to a durable
// standalone server — instant self-election, every write quorum-free
// but WAL-durable, state intact across a restart.
func TestSingleNodeGroup(t *testing.T) {
	c := newCluster(t, 1)
	c.startAll()
	id := c.waitLeader()
	n := c.get(id).node

	if err := n.CreateSegment(testSegment("solo")); err != nil {
		t.Fatal(err)
	}
	seg, err := n.LookupSegment("solo")
	if err != nil || seg.Name != "solo" {
		t.Fatalf("lookup = %+v, %v", seg, err)
	}
	if err := n.RegisterServer(metadata.Server{Addr: "s1:1"}); err != nil {
		t.Fatal(err)
	}

	c.stop(id)
	c.start(id)
	c.waitLeader()
	n = c.get(id).node
	if _, err := n.LookupSegment("solo"); err != nil {
		t.Fatalf("segment lost across restart: %v", err)
	}
	if srvs := n.Servers(); len(srvs) != 1 {
		t.Fatalf("servers lost across restart: %v", srvs)
	}
}

// TestThreeNodeReplication: writes through the leader's API are
// readable through every member (read-index reads), and all members
// converge to the same applied frontier.
func TestThreeNodeReplication(t *testing.T) {
	c := newCluster(t, 3)
	c.startAll()
	lead := c.waitLeader()
	ln := c.get(lead).node

	for i := 0; i < 5; i++ {
		if err := ln.CreateSegment(testSegment(fmt.Sprintf("seg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ln.CreateSegment(testSegment("seg-0")); !errors.Is(err, metadata.ErrSegmentExists) {
		t.Fatalf("duplicate create through the log = %v, want ErrSegmentExists", err)
	}

	applied := ln.Status().Applied
	for _, p := range c.peers {
		c.waitApplied(p.ID, applied)
		n := c.get(p.ID).node
		for i := 0; i < 5; i++ {
			if _, err := n.LookupSegment(fmt.Sprintf("seg-%d", i)); err != nil {
				t.Fatalf("node %d missing seg-%d: %v", p.ID, i, err)
			}
		}
		if names := n.ListSegments(); len(names) != 5 {
			t.Fatalf("node %d lists %d segments", p.ID, len(names))
		}
	}
}

// TestFollowerWriteProxy: a client wired to a single follower still
// gets writes through — the follower's network server forwards them
// to the leader and relays the answer.
func TestFollowerWriteProxy(t *testing.T) {
	c := newCluster(t, 3)
	c.startAll()
	lead := c.waitLeader()
	var followerAddr string
	for _, p := range c.peers {
		if p.ID != lead {
			followerAddr = p.ClientAddr
			break
		}
	}

	client, err := metadata.DialRemote(followerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.CreateSegment(testSegment("proxied")); err != nil {
		t.Fatalf("write via follower = %v", err)
	}
	if _, err := client.LookupSegment("proxied"); err != nil {
		t.Fatalf("read via follower = %v", err)
	}
	// The error surface must survive the proxy hop too.
	if err := client.CreateSegment(testSegment("proxied")); !errors.Is(err, metadata.ErrSegmentExists) {
		t.Fatalf("duplicate via follower = %v, want ErrSegmentExists", err)
	}
}

// TestLeaderLocksRedirectOnFollower: lock ops are leader-local; a
// follower node answers NotLeaderError carrying the leader hint
// rather than proxying.
func TestLeaderLocksRedirectOnFollower(t *testing.T) {
	c := newCluster(t, 3)
	c.startAll()
	lead := c.waitLeader()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	unlock, err := c.get(lead).node.LockWrite(ctx, "seg")
	if err != nil {
		t.Fatalf("leader lock = %v", err)
	}
	unlock()

	for _, p := range c.peers {
		if p.ID == lead {
			continue
		}
		// The leader hint rides the heartbeat: a follower asked before
		// the first AppendEntries of the term arrives legitimately
		// answers "leader unknown", so poll until the hint lands.
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, err := c.get(p.ID).node.LockWrite(ctx, "seg")
			if !errors.Is(err, metadata.ErrNotLeader) {
				t.Fatalf("follower %d lock = %v, want ErrNotLeader", p.ID, err)
			}
			var nle *metadata.NotLeaderError
			if errors.As(err, &nle) && nle.Leader == c.peer(lead).ClientAddr {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower %d hint = %v, want leader client addr", p.ID, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestSnapshotCompactionAndRestartCatchUp: a member that missed the
// leader's snapshot horizon is caught up by snapshot install plus the
// remaining log tail after it restarts.
func TestSnapshotCompactionAndRestartCatchUp(t *testing.T) {
	c := newCluster(t, 3)
	c.snapshotEvery = 8
	c.startAll()
	lead := c.waitLeader()
	ln := c.get(lead).node

	lag := 3
	if lead == lag {
		lag = 1
	}
	c.stop(lag)
	for i := 0; i < 30; i++ {
		if err := ln.CreateSegment(testSegment(fmt.Sprintf("deep-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Let the leader compact past what the stopped member holds.
	deadline := time.Now().Add(5 * time.Second)
	for ln.Status().SnapIndex == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ln.Status().SnapIndex == 0 {
		t.Fatal("leader never compacted")
	}

	c.start(lag)
	c.waitApplied(lag, ln.Status().Applied)
	lagNode := c.get(lag).node
	st := lagNode.Status()
	if st.SnapIndex == 0 {
		t.Fatalf("node %d caught up without a snapshot install: %+v", lag, st)
	}
	if _, err := lagNode.LookupSegment("deep-29"); err != nil {
		t.Fatalf("node %d read after catch-up = %v", lag, err)
	}
}

// TestClusterRestartPreservesState: stop every member, start every
// member; acknowledged writes must all survive (they live in a
// majority of WALs).
func TestClusterRestartPreservesState(t *testing.T) {
	c := newCluster(t, 3)
	c.startAll()
	lead := c.waitLeader()
	ln := c.get(lead).node
	for i := 0; i < 8; i++ {
		if err := ln.CreateSegment(testSegment(fmt.Sprintf("stable-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.stopAll()
	c.startAll()
	lead = c.waitLeader()
	n := c.get(lead).node
	for i := 0; i < 8; i++ {
		if _, err := n.LookupSegment(fmt.Sprintf("stable-%d", i)); err != nil {
			t.Fatalf("stable-%d lost across full restart: %v", i, err)
		}
	}
}

// TestStepDownRefusesUndurableTerm: a node that cannot persist a
// newly seen higher term must reject the RPC at its old term rather
// than acknowledge at a term that would roll back across a crash
// (and permit a second vote in it).
func TestStepDownRefusesUndurableTerm(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(Config{ID: 1, Peers: []Peer{{ID: 1}, {ID: 2}}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Point hard-state persistence into a missing directory so the
	// atomic save fails.
	orig := n.hsPath
	n.hsPath = filepath.Join(dir, "missing", "state.json")

	req := &rpcRequest{Kind: rpcVote, From: 2, Term: 7}
	resp := n.handleVote(req)
	if resp.VoteGranted {
		t.Fatal("vote granted despite undurable term adoption")
	}
	if resp.Error == "" {
		t.Fatal("no error reported for refused term adoption")
	}
	if got := n.termNow(); got != 0 {
		t.Fatalf("in-memory term = %d after refused adoption, want 0", got)
	}
	if hs, err := loadHardState(orig); err != nil || hs.Term != 0 {
		t.Fatalf("durable hard state = %+v, %v; want zero term", hs, err)
	}

	// With persistence healed the same request must go through.
	n.hsPath = orig
	resp = n.handleVote(req)
	if !resp.VoteGranted || resp.Term != 7 {
		t.Fatalf("healed vote = %+v, want grant at term 7", resp)
	}
	if hs, err := loadHardState(orig); err != nil || hs.Term != 7 || hs.VotedFor != 2 {
		t.Fatalf("durable hard state = %+v, %v; want term 7 vote for 2", hs, err)
	}
}

// TestConflictRewriteFailureKeepsOldLog: when the conflict-truncation
// WAL rewrite fails, the in-memory log must keep the old suffix so
// memory and disk agree — not adopt a suffix the disk never saw.
func TestConflictRewriteFailureKeepsOldLog(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(Config{ID: 1, Peers: []Peer{{ID: 1}, {ID: 2}}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	noop, err := encodeCommand(Command{Op: opNoop})
	if err != nil {
		t.Fatal(err)
	}
	ents := func(term uint64, count int) []Entry {
		out := make([]Entry, count)
		for i := range out {
			out[i] = Entry{Index: uint64(i + 1), Term: term, Command: noop}
		}
		return out
	}

	resp := n.handleAppend(&rpcRequest{Kind: rpcAppend, From: 2, Term: 1, Entries: ents(1, 3)})
	if !resp.Success {
		t.Fatalf("initial append = %+v", resp)
	}

	// Break the WAL rewrite path, then deliver a conflicting suffix.
	walPath := n.wal.path
	n.wal.path = filepath.Join(dir, "missing", "wal.log")
	resp = n.handleAppend(&rpcRequest{Kind: rpcAppend, From: 2, Term: 2, Entries: ents(2, 2)})
	if resp.Success || resp.Error == "" {
		t.Fatalf("conflicting append with broken WAL = %+v, want error", resp)
	}
	n.mu.Lock()
	logLen, t1 := len(n.log), n.termAtLocked(1)
	n.mu.Unlock()
	if logLen != 3 || t1 != 1 {
		t.Fatalf("in-memory log mutated on failed rewrite: len=%d termAt(1)=%d", logLen, t1)
	}

	// Disk must agree with memory: closing and replaying the WAL
	// yields the original three term-1 entries.
	n.wal.path = walPath
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	w, replayed, err := openWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(replayed) != 3 || replayed[0].Term != 1 {
		t.Fatalf("WAL replay = %d entries (term %d), want 3 of term 1",
			len(replayed), replayed[0].Term)
	}
}
