package replica

import (
	"context"

	"repro/internal/metadata"
)

// Node implements metadata.API so one replica serves clients exactly
// like the single-node Service does: wrap it in
// metadata.NewNetworkServerFor. Writes become log proposals (leader
// only; followers answer NotLeaderError, which the network server
// proxies and the failover client retargets on). Reads run a
// read-index round and are then served from the local state machine,
// so followers share the read load without returning stale data.
// Locks are leader-local runtime state, like the single server's: a
// leader change drops them, exactly as a metadata server restart
// always has.
var _ metadata.API = (*Node)(nil)

// CreateSegment implements metadata.API via the consensus log.
func (n *Node) CreateSegment(seg metadata.Segment) error {
	return n.proposeTimed(Command{Op: opCreate, Segment: &seg})
}

// UpdateSegment implements metadata.API via the consensus log.
func (n *Node) UpdateSegment(seg metadata.Segment) error {
	return n.proposeTimed(Command{Op: opUpdate, Segment: &seg})
}

// DeleteSegment implements metadata.API via the consensus log.
func (n *Node) DeleteSegment(name string) error {
	return n.proposeTimed(Command{Op: opDelete, Name: name})
}

// RegisterServer implements metadata.API via the consensus log.
func (n *Node) RegisterServer(info metadata.Server) error {
	return n.proposeTimed(Command{Op: opRegister, Server: &info})
}

// UnregisterServer implements metadata.API via the consensus log.
func (n *Node) UnregisterServer(addr string) error {
	return n.proposeTimed(Command{Op: opUnregister, Name: addr})
}

// SetServerState implements metadata.API via the consensus log, so a
// drain survives leader failover and is consistent across the group.
func (n *Node) SetServerState(addr string, state metadata.ServerState) error {
	return n.proposeTimed(Command{Op: opSetState, Name: addr, State: string(state)})
}

// proposeTimed proposes under the configured commit timeout (the API
// methods carry no context).
func (n *Node) proposeTimed(c Command) error {
	ctx, cancel := context.WithTimeout(context.Background(), n.tune.commitTimeout)
	defer cancel()
	return n.propose(ctx, c)
}

// LookupSegment implements metadata.API with a linearizable local
// read.
func (n *Node) LookupSegment(name string) (metadata.Segment, error) {
	if err := n.readBarrier(); err != nil {
		return metadata.Segment{}, err
	}
	return n.svc.LookupSegment(name)
}

// ListSegments implements metadata.API (nil when no quorum is
// reachable, matching the remote client's error behavior).
func (n *Node) ListSegments() []string {
	if err := n.readBarrier(); err != nil {
		return nil
	}
	return n.svc.ListSegments()
}

// Servers implements metadata.API (nil when no quorum is reachable).
func (n *Node) Servers() []metadata.Server {
	if err := n.readBarrier(); err != nil {
		return nil
	}
	return n.svc.Servers()
}

// readBarrier performs the read-index protocol: obtain a commit
// frontier that a confirmed leader vouches for, then wait until the
// local state machine has applied it.
func (n *Node) readBarrier() error {
	ctx, cancel := context.WithTimeout(context.Background(), n.tune.commitTimeout)
	defer cancel()
	ri, err := n.readIndex(ctx)
	if err != nil {
		return err
	}
	return n.waitApplied(ctx, ri)
}

// LockRead implements metadata.API. Locks are granted only by the
// leader (leader-local state); elsewhere the caller is redirected.
func (n *Node) LockRead(ctx context.Context, name string) (func(), error) {
	if !n.IsLeader() {
		return nil, n.notLeaderErr()
	}
	return n.svc.LockRead(ctx, name)
}

// LockWrite implements metadata.API; see LockRead.
func (n *Node) LockWrite(ctx context.Context, name string) (func(), error) {
	if !n.IsLeader() {
		return nil, n.notLeaderErr()
	}
	return n.svc.LockWrite(ctx, name)
}
