package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/robust"
	"repro/internal/transport"
)

// numServers is the block-server count of the loopback cluster.
const numServers = 8

// cluster is one in-process RobuSTore deployment on loopback TCP:
// numServers block servers, a networked metadata service reached over
// its JSON protocol, and one robust client. The decorators of trace.go
// sit between the client and each layer for the cluster's lifetime.
type cluster struct {
	sp     spec
	tracer *tracer
	client *robust.Client

	mems     []*blockstore.MemStore
	servers  []*transport.Server
	lns      []*countingListener
	conns    []*transport.Client
	metaSrv  *metadata.NetworkServer
	metaCli  *metadata.RemoteClient
	serveErr chan error
	wg       sync.WaitGroup
}

// newCluster starts a cluster for sp. Stores are
// SlowStore(WithChecksums(MemStore)) with seeded profiles for a slow
// spec and WithChecksums(MemStore) otherwise.
func newCluster(sp spec, seed int64, t *tracer) (cl *cluster, err error) {
	cl = &cluster{sp: sp, tracer: t, serveErr: make(chan error, numServers+1)}
	defer func() {
		if err != nil {
			cl.close()
			cl = nil
		}
	}()
	// The client's placement orders servers by address, and every
	// write takes that order, so which server is fast must follow the
	// address order, not the ports the kernel hands out: the server
	// with the i-th smallest address gets rank i in every run.
	var lns []net.Listener
	for i := 0; i < numServers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return cl, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
	}
	sort.Slice(lns, func(i, j int) bool { return lns[i].Addr().String() < lns[j].Addr().String() })
	profiles, seeds := slowProfiles(seed, numServers)
	var addrs []string
	for i, ln := range lns {
		mem := blockstore.NewMemStore()
		var store blockstore.Store = blockstore.WithChecksums(mem)
		if sp.slow {
			store = blockstore.NewSlowStore(store, profiles[i], seeds[i])
		}
		srv := transport.NewServer(wrapStore(store, t, i+1), transport.ServerOptions{})
		cln := &countingListener{Listener: ln}
		cl.mems = append(cl.mems, mem)
		cl.servers = append(cl.servers, srv)
		cl.lns = append(cl.lns, cln)
		cl.serve(func() error { return srv.Serve(cln) })
		addrs = append(addrs, ln.Addr().String())
	}

	svc := metadata.NewService()
	cl.metaSrv = metadata.NewNetworkServer(svc)
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cl, fmt.Errorf("listen: %w", err)
	}
	cl.serve(func() error { return cl.metaSrv.Serve(mln) })
	cl.metaCli, err = metadata.DialRemote(mln.Addr().String())
	if err != nil {
		return cl, err
	}
	meta := &tracedMeta{inner: cl.metaCli, t: t}
	cl.client, err = robust.NewClient(meta, robust.Options{BlockBytes: sp.blockBytes, HedgeReads: true})
	if err != nil {
		return cl, err
	}
	for _, addr := range addrs {
		if err := meta.RegisterServer(metadata.Server{Addr: addr}); err != nil {
			return cl, err
		}
		conn, err := transport.Dial(addr, transport.ClientOptions{MaxConns: runtime.NumCPU()})
		if err != nil {
			return cl, err
		}
		cl.conns = append(cl.conns, conn)
		if err := cl.client.AttachStore(addr, &tracedTransport{c: conn, t: t}); err != nil {
			return cl, err
		}
	}
	return cl, nil
}

// serve runs a server loop until close.
func (cl *cluster) serve(f func() error) {
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		if err := f(); err != nil {
			cl.serveErr <- err
		}
	}()
}

// close stops every client and server of the cluster and waits for
// their serve loops to return.
func (cl *cluster) close() error {
	for _, c := range cl.conns {
		c.Close()
	}
	if cl.metaCli != nil {
		cl.metaCli.Close()
	}
	for _, s := range cl.servers {
		s.Close()
	}
	if cl.metaSrv != nil {
		cl.metaSrv.Close()
	}
	cl.wg.Wait()
	close(cl.serveErr)
	var errs []error
	for err := range cl.serveErr {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// wireBytes is the total traffic through every block server's sockets,
// both directions.
func (cl *cluster) wireBytes() int64 {
	var n int64
	for _, ln := range cl.lns {
		n += ln.bytes.Load()
	}
	return n
}

// storedBytes is what the servers' memory stores hold.
func (cl *cluster) storedBytes() int64 {
	var n int64
	for _, m := range cl.mems {
		n += m.Bytes()
	}
	return n
}

// sweep removes the blocks the servers' memory stores still hold for a
// deleted segment and returns how many there were. A rateless write
// whose commit target is reached cancels its in-flight puts; blocks a
// server stored before it saw the cancel are in no placement record,
// so Delete cannot reach them. Left alone they would grow memory for
// the whole run.
func (cl *cluster) sweep(ctx context.Context, segment string) int {
	n := 0
	for _, m := range cl.mems {
		indices, err := m.List(ctx, segment)
		if err != nil {
			continue
		}
		for _, i := range indices {
			if m.Delete(ctx, segment, i) == nil {
				n++
			}
		}
	}
	return n
}

// countingListener counts the bytes its accepted connections move.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}
