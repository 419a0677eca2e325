package replica

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/metadata"
)

// Test cluster harness: real TCP loopback listeners for both the
// consensus RPC plane and the client wire protocol, per-node data
// directories, and a partitioner injected through Config.Dial so
// tests can cut any node off from its peers without touching the
// client plane.

const (
	testElectionTimeout = 60 * time.Millisecond
	testRPCTimeout      = 500 * time.Millisecond
	testCommitTimeout   = 5 * time.Second
)

// partitioner decides, per dial and per established conn, whether two
// nodes can exchange consensus traffic.
type partitioner struct {
	mu     sync.Mutex
	cut    map[int]bool   // node id -> isolated from all peers
	addrID map[string]int // raft addr -> node id
}

func newPartitioner() *partitioner {
	return &partitioner{cut: make(map[int]bool), addrID: make(map[string]int)}
}

func (p *partitioner) isolate(id int, isolated bool) {
	p.mu.Lock()
	p.cut[id] = isolated
	p.mu.Unlock()
}

func (p *partitioner) blocked(a, b int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cut[a] || p.cut[b]
}

var errPartitioned = errors.New("replica_test: partitioned")

// dialFor builds the dial func node id uses toward its peers.
func (p *partitioner) dialFor(id int) dialFunc {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		p.mu.Lock()
		peer := p.addrID[addr]
		p.mu.Unlock()
		if p.blocked(id, peer) {
			return nil, errPartitioned
		}
		conn, err := defaultDial(ctx, addr)
		if err != nil {
			return nil, err
		}
		return &partConn{Conn: conn, p: p, a: id, b: peer}, nil
	}
}

// partConn fails an established consensus conn once a partition
// covering either endpoint appears, so cached peer connections do not
// tunnel through a partition.
type partConn struct {
	net.Conn
	p    *partitioner
	a, b int
}

func (c *partConn) Read(b []byte) (int, error) {
	if c.p.blocked(c.a, c.b) {
		c.Conn.Close()
		return 0, errPartitioned
	}
	return c.Conn.Read(b)
}

func (c *partConn) Write(b []byte) (int, error) {
	if c.p.blocked(c.a, c.b) {
		c.Conn.Close()
		return 0, errPartitioned
	}
	return c.Conn.Write(b)
}

// clusterNode is one running member: consensus node + client-facing
// network server.
type clusterNode struct {
	id   int
	node *Node
	srv  *metadata.NetworkServer
	wg   sync.WaitGroup
}

// cluster manages a replicated metadata group for tests.
type cluster struct {
	t     *testing.T
	dir   string
	peers []Peer
	part  *partitioner
	// wrapRaft optionally wraps each node's consensus listener
	// (fault injection).
	wrapRaft func(net.Listener) net.Listener
	// snapshotEvery overrides the default snapshot interval when > 0.
	snapshotEvery int

	mu    sync.Mutex
	nodes map[int]*clusterNode
}

// newCluster reserves addresses for n members (nothing is started
// yet); call startAll or start per member.
func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{
		t:     t,
		dir:   t.TempDir(),
		part:  newPartitioner(),
		nodes: make(map[int]*clusterNode),
	}
	for id := 1; id <= n; id++ {
		raftAddr := reserveAddr(t)
		c.part.mu.Lock()
		c.part.addrID[raftAddr] = id
		c.part.mu.Unlock()
		c.peers = append(c.peers, Peer{
			ID:         id,
			RaftAddr:   raftAddr,
			ClientAddr: reserveAddr(t),
		})
	}
	t.Cleanup(c.stopAll)
	return c
}

// reserveAddr grabs a free loopback port and releases it for the
// cluster to bind shortly after. The tiny reuse window is fine for
// tests.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func (c *cluster) peer(id int) Peer {
	for _, p := range c.peers {
		if p.ID == id {
			return p
		}
	}
	c.t.Fatalf("no peer %d", id)
	return Peer{}
}

func (c *cluster) clientAddrs() []string {
	addrs := make([]string, 0, len(c.peers))
	for _, p := range c.peers {
		addrs = append(addrs, p.ClientAddr)
	}
	return addrs
}

// start opens (or reopens, preserving the data dir) one member and
// serves both planes.
func (c *cluster) start(id int) *clusterNode {
	c.t.Helper()
	self := c.peer(id)
	cfg := Config{
		ID:    id,
		Peers: c.peers,
		Dir:   filepath.Join(c.dir, self.RaftAddr+"-node"),
		Dial:  c.part.dialFor(id),
		Logf:  c.t.Logf,
	}
	tune := defaultTuning()
	tune.electionTimeout = testElectionTimeout
	tune.heartbeatInterval = testElectionTimeout / 4
	tune.rpcTimeout = testRPCTimeout
	tune.commitTimeout = testCommitTimeout
	if c.snapshotEvery > 0 {
		tune.snapshotEvery = c.snapshotEvery
	}
	node, err := openTuned(cfg, tune)
	if err != nil {
		c.t.Fatalf("open node %d: %v", id, err)
	}
	raftLn, err := net.Listen("tcp", self.RaftAddr)
	if err != nil {
		node.Close()
		c.t.Fatalf("raft listen %d: %v", id, err)
	}
	if c.wrapRaft != nil {
		raftLn = c.wrapRaft(raftLn)
	}
	if err := node.Serve(raftLn); err != nil {
		node.Close()
		c.t.Fatalf("serve node %d: %v", id, err)
	}
	srv := metadata.NewNetworkServerFor(node)
	clientLn, err := net.Listen("tcp", self.ClientAddr)
	if err != nil {
		srv.Close()
		node.Close()
		c.t.Fatalf("client listen %d: %v", id, err)
	}
	cn := &clusterNode{id: id, node: node, srv: srv}
	cn.wg.Add(1)
	go func() {
		defer cn.wg.Done()
		srv.Serve(clientLn)
	}()
	c.mu.Lock()
	c.nodes[id] = cn
	c.mu.Unlock()
	return cn
}

func (c *cluster) startAll() {
	for _, p := range c.peers {
		c.start(p.ID)
	}
}

// stop kills one member (both planes). Its data dir survives for a
// later start.
func (c *cluster) stop(id int) {
	c.mu.Lock()
	cn := c.nodes[id]
	delete(c.nodes, id)
	c.mu.Unlock()
	if cn == nil {
		return
	}
	cn.srv.Close()
	cn.node.Close()
	cn.wg.Wait()
}

func (c *cluster) stopAll() {
	c.mu.Lock()
	ids := make([]int, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	for _, id := range ids {
		c.stop(id)
	}
}

func (c *cluster) get(id int) *clusterNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// waitLeader blocks until some running member believes it leads and
// returns its id.
func (c *cluster) waitLeader() int {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		for id, cn := range c.nodes {
			if cn.node.IsLeader() {
				c.mu.Unlock()
				return id
			}
		}
		c.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatal("no leader elected within deadline")
	return 0
}

// waitApplied blocks until member id has applied at least idx.
func (c *cluster) waitApplied(id int, idx uint64) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		cn := c.get(id)
		if cn != nil && cn.node.Status().Applied >= idx {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	cn := c.get(id)
	if cn == nil {
		c.t.Fatalf("node %d not running", id)
	}
	c.t.Fatalf("node %d stuck at %+v waiting for %d", id, cn.node.Status(), idx)
}

func testSegment(name string) metadata.Segment {
	return metadata.Segment{
		Name: name,
		Size: 512,
		Coding: metadata.Coding{
			Algorithm: "lt", K: 4, N: 8, BlockBytes: 128,
			C: 1, Delta: 0.5, GraphSeed: 7, GraphN: 10,
		},
		Placement: map[string][]int{"s1:1": {0, 1, 2, 3}, "s2:1": {4, 5, 6, 7}},
	}
}
