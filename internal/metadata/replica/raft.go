package replica

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/metadata"
)

// This file is the consensus core: term-based leader election with
// randomized timeouts, majority-acknowledged log replication, commit
// and apply, and the read-index protocol. The rules are the standard
// Raft safety argument, stdlib-only:
//
//   - a vote or append acknowledgement is durable (fsync) before it
//     is sent;
//   - a leader only commits entries of its own term (carrying older
//     entries along), and appends a no-op on election so the commit
//     frontier advances immediately;
//   - an election only succeeds against a candidate whose log is at
//     least as up-to-date as the voter's.

// --- election ---

// tickLoop campaigns when the leader has been silent for the
// randomized election timeout.
func (n *Node) tickLoop() {
	tick := n.tune.electionTimeout / 10
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-n.stopc:
			return
		case <-t.C:
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		if n.role != leader && time.Since(n.lastContact) >= n.timeout {
			n.startElectionLocked()
		}
		n.mu.Unlock()
	}
}

// startElectionLocked campaigns for the next term. Callers hold n.mu.
func (n *Node) startElectionLocked() {
	n.role = candidate
	n.term++
	n.votedFor = n.id
	n.leaderID = 0
	if err := n.persistHardStateLocked(); err != nil {
		// Without a durable vote we must not campaign.
		n.logf("election persist failed: %v", err)
		n.role = follower
		n.votedFor = 0
		return
	}
	n.m.elections.Inc()
	n.lastContact = time.Now()
	n.timeout = n.randTimeout()
	n.rotateProgressLocked()
	n.logf("campaigning in term %d", n.term)
	if n.quorum() == 1 {
		n.becomeLeaderLocked()
		return
	}
	term := n.term
	req := &rpcRequest{
		Kind:         rpcVote,
		From:         n.id,
		Term:         term,
		LastLogIndex: n.lastIndexLocked(),
		LastLogTerm:  n.termAtLocked(n.lastIndexLocked()),
	}
	votes := 1 // self
	granted := &votes
	for _, p := range n.peers {
		pc := n.clients[p.ID]
		n.spawn(func() {
			resp, err := pc.call(req)
			if err != nil {
				return
			}
			n.mu.Lock()
			defer n.mu.Unlock()
			if n.closed {
				return
			}
			if resp.Term > n.term {
				n.stepDownLocked(resp.Term)
				return
			}
			if n.role != candidate || n.term != term || !resp.VoteGranted {
				return
			}
			*granted++
			if *granted >= n.quorum() {
				n.becomeLeaderLocked()
			}
		})
	}
}

// becomeLeaderLocked takes leadership of the current term. Callers
// hold n.mu.
func (n *Node) becomeLeaderLocked() {
	n.role = leader
	n.leaderID = n.id
	n.m.leaderChanges.Inc()
	n.m.isLeader.Set(1)
	last := n.lastIndexLocked()
	for _, p := range n.peers {
		n.nextIndex[p.ID] = last + 1
		n.matchIndex[p.ID] = 0
	}
	n.logf("leading term %d from index %d", n.term, last)
	// Commit the term immediately with a no-op so read-index has a
	// committed entry of this term to anchor on.
	noop, err := encodeCommand(Command{Op: opNoop})
	if err == nil {
		err = n.appendLocalLocked(noop)
	}
	if err != nil {
		n.logf("no-op append failed: %v", err)
		n.stepDownLocked(n.term)
		return
	}
	n.rotateProgressLocked()
	n.kickPeersLocked()
}

// stepDownLocked reverts to follower, adopting term if newer. A
// deposed leader fails its outstanding proposals: their entries may
// yet commit, so the result is reported unknown. Callers hold n.mu.
//
// It reports whether the term was adopted. When the newer term cannot
// be made durable the node refuses it — memory reverts to the old
// term so memory and disk agree, and the caller must reject the RPC
// rather than acknowledge anything: acking in a term that rolls back
// across a crash would let this member vote or ack twice. The node
// still drops to follower, which is always safe.
func (n *Node) stepDownLocked(term uint64) bool {
	adopted := true
	if term > n.term {
		prevTerm, prevVote := n.term, n.votedFor
		n.term = term
		n.votedFor = 0
		if err := n.persistHardStateLocked(); err != nil {
			n.term, n.votedFor = prevTerm, prevVote
			n.logf("step-down persist failed, refusing term %d: %v", term, err)
			adopted = false
		}
	}
	if n.role == leader {
		n.failWaitersLocked(ErrLeadershipLost)
	}
	n.role = follower
	n.m.isLeader.Set(0)
	n.rotateProgressLocked()
	return adopted
}

// appendLocalLocked appends one command to the leader's own log,
// durably. Callers hold n.mu and have verified leadership.
func (n *Node) appendLocalLocked(command []byte) error {
	e := Entry{Index: n.lastIndexLocked() + 1, Term: n.term, Command: command}
	if err := n.wal.append(e); err != nil {
		return err
	}
	n.log = append(n.log, e)
	n.maybeCommitLocked()
	return nil
}

// --- replication (leader side) ---

// peerLoop replicates to one peer: heartbeats on a timer, immediate
// rounds on kicks (new proposals, commit advances).
func (n *Node) peerLoop(p Peer) {
	hb := time.NewTicker(n.tune.heartbeatInterval)
	defer hb.Stop()
	kick := n.peerKicks[p.ID]
	for {
		select {
		case <-n.stopc:
			return
		case <-kick:
		case <-hb.C:
		}
		for n.syncPeerOnce(p) {
		}
	}
}

// syncPeerOnce performs one replication round toward p; it returns
// true when the peer is known to still be behind, so the caller
// immediately runs another round.
func (n *Node) syncPeerOnce(p Peer) bool {
	n.mu.Lock()
	if n.closed || n.role != leader {
		n.mu.Unlock()
		return false
	}
	term := n.term
	ni := n.nextIndex[p.ID]
	if ni <= n.snapIndex {
		// The peer needs entries we compacted: install our snapshot.
		req := &rpcRequest{
			Kind:      rpcSnapshot,
			From:      n.id,
			Term:      term,
			SnapIndex: n.snapIndex,
			SnapTerm:  n.snapTerm,
			SnapState: n.snapState,
		}
		n.mu.Unlock()
		resp, err := n.clients[p.ID].call(req)
		if err != nil {
			return false
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.closed || n.role != leader || n.term != term {
			return false
		}
		if resp.Term > n.term {
			n.stepDownLocked(resp.Term)
			return false
		}
		if resp.Success {
			n.m.snapshotInstalls.Inc()
			if resp.MatchIndex > n.matchIndex[p.ID] {
				n.matchIndex[p.ID] = resp.MatchIndex
			}
			n.nextIndex[p.ID] = resp.MatchIndex + 1
			n.maybeCommitLocked()
			return n.lastIndexLocked() > resp.MatchIndex
		}
		return false
	}

	req := &rpcRequest{
		Kind:         rpcAppend,
		From:         n.id,
		Term:         term,
		PrevLogIndex: ni - 1,
		PrevLogTerm:  n.termAtLocked(ni - 1),
		Entries:      n.entriesFromLocked(ni),
		LeaderCommit: n.commitIndex,
	}
	n.mu.Unlock()
	resp, err := n.clients[p.ID].call(req)
	if err != nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.role != leader || n.term != term {
		return false
	}
	if resp.Term > n.term {
		n.stepDownLocked(resp.Term)
		return false
	}
	if resp.Success {
		if resp.MatchIndex > n.matchIndex[p.ID] {
			n.matchIndex[p.ID] = resp.MatchIndex
		}
		n.nextIndex[p.ID] = resp.MatchIndex + 1
		n.maybeCommitLocked()
		return n.lastIndexLocked() > resp.MatchIndex
	}
	// Log mismatch: back up to the peer's conflict hint and retry.
	ci := resp.ConflictIndex
	if ci == 0 || ci > ni-1 {
		ci = ni - 1
	}
	if ci < 1 {
		ci = 1
	}
	n.nextIndex[p.ID] = ci
	return true
}

// maybeCommitLocked advances the commit frontier to the highest index
// stored on a majority, provided that index is of the current term.
// Callers hold n.mu; leader only.
func (n *Node) maybeCommitLocked() {
	last := n.lastIndexLocked()
	for idx := last; idx > n.commitIndex && idx > n.snapIndex; idx-- {
		if n.termAtLocked(idx) != n.term {
			break // older-term entries commit only by carry-along
		}
		count := 1 // self (the entry is in our durable log)
		for _, p := range n.peers {
			if n.matchIndex[p.ID] >= idx {
				count++
			}
		}
		if count >= n.quorum() {
			n.commitIndex = idx
			n.kickApplyLocked()
			n.kickPeersLocked() // propagate the new frontier promptly
			n.rotateProgressLocked()
			return
		}
	}
}

// --- RPC handlers (follower side) ---

// handleVote answers a RequestVote.
func (n *Node) handleVote(req *rpcRequest) *rpcResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := &rpcResponse{Term: n.term}
	if n.closed || req.Term < n.term {
		return resp
	}
	if req.Term > n.term {
		if !n.stepDownLocked(req.Term) {
			resp.Error = "replica: cannot durably adopt term"
			return resp
		}
		resp.Term = n.term
	}
	last := n.lastIndexLocked()
	lastTerm := n.termAtLocked(last)
	upToDate := req.LastLogTerm > lastTerm ||
		(req.LastLogTerm == lastTerm && req.LastLogIndex >= last)
	if (n.votedFor == 0 || n.votedFor == req.From) && upToDate {
		n.votedFor = req.From
		if err := n.persistHardStateLocked(); err != nil {
			n.logf("vote persist failed: %v", err)
			return resp // do not promise an undurable vote
		}
		n.lastContact = time.Now()
		resp.VoteGranted = true
	}
	return resp
}

// handleAppend answers AppendEntries: heartbeat, consistency check,
// durable append, commit advance.
func (n *Node) handleAppend(req *rpcRequest) *rpcResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := &rpcResponse{Term: n.term}
	if n.closed || req.Term < n.term {
		return resp
	}
	if err := validateSequence(req.PrevLogIndex, req.Entries); err != nil {
		resp.Error = err.Error()
		return resp
	}
	if req.Term > n.term || n.role != follower {
		if !n.stepDownLocked(req.Term) {
			resp.Error = "replica: cannot durably adopt term"
			return resp
		}
	}
	resp.Term = n.term
	n.leaderID = req.From
	n.lastContact = time.Now()

	last := n.lastIndexLocked()
	switch {
	case req.PrevLogIndex > last:
		resp.ConflictIndex = last + 1
		return resp
	case req.PrevLogIndex < n.snapIndex:
		// We compacted past prev; everything ≤ snapIndex is committed
		// state, so ask the leader to resume after it.
		resp.ConflictIndex = n.snapIndex + 1
		return resp
	}
	if pt := n.termAtLocked(req.PrevLogIndex); pt != req.PrevLogTerm {
		// Walk to the first index of the conflicting term so the
		// leader skips the whole run in one round.
		ci := req.PrevLogIndex
		for ci > n.snapIndex+1 && n.termAtLocked(ci-1) == pt {
			ci--
		}
		resp.ConflictIndex = ci
		return resp
	}

	// Find the first entry that is new or conflicts.
	writeFrom := -1
	for i, e := range req.Entries {
		if e.Index <= n.snapIndex {
			continue
		}
		if e.Index <= last && n.termAtLocked(e.Index) == e.Term {
			continue
		}
		writeFrom = i
		break
	}
	if writeFrom >= 0 {
		first := req.Entries[writeFrom]
		if first.Index <= last {
			// Conflict: truncate our suffix, then append. The rewrite
			// is atomic and goes to disk first — n.log adopts the
			// candidate only once it is durable, so a rewrite failure
			// leaves memory and WAL agreeing on the old log instead of
			// acking future appends on top of a divergent file.
			cand := append([]Entry(nil), n.log[:first.Index-n.snapIndex-1]...)
			cand = append(cand, req.Entries[writeFrom:]...)
			if err := n.wal.rewrite(cand); err != nil {
				resp.Error = err.Error()
				return resp
			}
			n.log = cand
		} else {
			if err := n.wal.append(req.Entries[writeFrom:]...); err != nil {
				resp.Error = err.Error()
				return resp
			}
			n.log = append(n.log, req.Entries[writeFrom:]...)
		}
	}
	match := req.PrevLogIndex + uint64(len(req.Entries))
	if req.LeaderCommit > n.commitIndex {
		nc := req.LeaderCommit
		if match < nc {
			nc = match
		}
		if nc > n.commitIndex {
			n.commitIndex = nc
			n.kickApplyLocked()
			n.rotateProgressLocked()
		}
	}
	resp.Success = true
	resp.MatchIndex = match
	return resp
}

// handleSnapshot installs the leader's snapshot on a follower that
// fell behind the leader's compaction horizon.
func (n *Node) handleSnapshot(req *rpcRequest) *rpcResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := &rpcResponse{Term: n.term}
	if n.closed || req.Term < n.term {
		return resp
	}
	if req.Term > n.term || n.role != follower {
		if !n.stepDownLocked(req.Term) {
			resp.Error = "replica: cannot durably adopt term"
			return resp
		}
	}
	resp.Term = n.term
	n.leaderID = req.From
	n.lastContact = time.Now()
	if req.SnapIndex <= n.commitIndex {
		// Stale: we already hold everything it covers.
		resp.Success = true
		resp.MatchIndex = n.commitIndex
		return resp
	}
	// Validate the state against a scratch service first, then persist
	// snapshot + emptied WAL, and only then touch the live state
	// machine — so a failure at any step leaves memory, disk, and the
	// applied index agreeing on the pre-install state.
	if err := metadata.NewService().Load(bytes.NewReader(req.SnapState)); err != nil {
		resp.Error = fmt.Sprintf("replica: rejecting snapshot state: %v", err)
		return resp
	}
	snap := snapshot{LastIndex: req.SnapIndex, LastTerm: req.SnapTerm, State: req.SnapState}
	if err := saveSnapshot(n.snapPath, snap); err != nil {
		resp.Error = err.Error()
		return resp
	}
	if err := n.wal.rewrite(nil); err != nil {
		resp.Error = err.Error()
		return resp
	}
	if err := n.svc.Load(bytes.NewReader(req.SnapState)); err != nil {
		// Unreachable after the scratch validation (Load is
		// all-or-nothing over the same bytes), but refuse the install
		// rather than desync state from the applied index.
		resp.Error = fmt.Sprintf("replica: loading snapshot state: %v", err)
		return resp
	}
	n.log = nil
	n.snapIndex, n.snapTerm, n.snapState = req.SnapIndex, req.SnapTerm, req.SnapState
	n.commitIndex, n.applied = req.SnapIndex, req.SnapIndex
	n.sinceSnap = 0
	n.m.appliedIndex.Set(float64(n.applied))
	n.rotateProgressLocked()
	resp.Success = true
	resp.MatchIndex = req.SnapIndex
	return resp
}

// handleProbe acknowledges a leadership-confirmation heartbeat (the
// read-index quorum round).
func (n *Node) handleProbe(req *rpcRequest) *rpcResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := &rpcResponse{Term: n.term}
	if n.closed || req.Term < n.term {
		return resp
	}
	if req.Term > n.term || n.role != follower {
		if !n.stepDownLocked(req.Term) {
			resp.Error = "replica: cannot durably adopt term"
			return resp
		}
	}
	resp.Term = n.term
	n.leaderID = req.From
	n.lastContact = time.Now()
	resp.Success = true
	return resp
}

// handleReadIndex serves a follower's read-index query: the leader
// confirms its leadership with a probe quorum and returns its commit
// frontier.
func (n *Node) handleReadIndex(req *rpcRequest) *rpcResponse {
	timeout := n.tune.rpcTimeout / 2
	if timeout < 50*time.Millisecond {
		timeout = 50 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	ri, err := n.leaderReadIndex(ctx)
	if err != nil {
		return &rpcResponse{Term: n.termNow(), Error: err.Error()}
	}
	return &rpcResponse{Term: n.termNow(), Success: true, ReadIndex: ri}
}

func (n *Node) termNow() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// --- apply loop ---

// applyLoop applies committed entries to the state machine, resolves
// proposal waiters, and compacts the log behind periodic snapshots.
//
// Each apply runs under n.mu and targets exactly index applied+1, so
// it can never interleave with a concurrent snapshot install
// (handleSnapshot mutates the service and raises applied under the
// same lock): after an install, applied == snapIndex and the next
// iteration re-reads the frontier instead of replaying entries the
// snapshot already covers. Commands are in-memory map operations, so
// holding the lock across one apply is cheap.
func (n *Node) applyLoop() {
	for {
		select {
		case <-n.stopc:
			return
		case <-n.applyKick:
		}
		for {
			n.mu.Lock()
			if n.closed {
				n.mu.Unlock()
				return
			}
			if n.applied >= n.commitIndex {
				if n.sinceSnap >= n.tune.snapshotEvery && n.applied > n.snapIndex {
					if err := n.snapshotLocked(); err != nil {
						n.logf("snapshot failed: %v", err)
					}
				}
				n.mu.Unlock()
				break
			}
			// applied >= snapIndex always holds, so the next entry (if
			// present) sits at this offset of the in-memory log.
			off := n.applied - n.snapIndex
			if off >= uint64(len(n.log)) {
				n.mu.Unlock()
				break
			}
			e := n.log[off]
			res, aerr := applyCommand(n.svc, e.Command)
			if aerr != nil {
				n.logf("apply %d: %v", e.Index, aerr)
				res = aerr
			}
			n.applied = e.Index
			n.sinceSnap++
			n.m.appliedIndex.Set(float64(n.applied))
			if w, ok := n.waiters[e.Index]; ok {
				delete(n.waiters, e.Index)
				if w.term == e.Term {
					w.ch <- res
				} else {
					w.ch <- ErrLeadershipLost
				}
			}
			n.rotateProgressLocked()
			n.mu.Unlock()
		}
	}
}

// snapshotLocked serializes the state machine at the applied index,
// persists it, and drops the applied log prefix. Callers hold n.mu;
// the apply loop is the only caller, so the service state is exactly
// the applied index.
func (n *Node) snapshotLocked() error {
	var buf bytes.Buffer
	if err := n.svc.Save(&buf); err != nil {
		return err
	}
	s := snapshot{LastIndex: n.applied, LastTerm: n.termAtLocked(n.applied), State: buf.Bytes()}
	if err := saveSnapshot(n.snapPath, s); err != nil {
		return err
	}
	drop := n.applied - n.snapIndex
	n.log = append([]Entry(nil), n.log[drop:]...)
	n.snapIndex, n.snapTerm, n.snapState = s.LastIndex, s.LastTerm, s.State
	n.sinceSnap = 0
	if err := n.wal.rewrite(n.log); err != nil {
		return err
	}
	n.m.snapshots.Inc()
	n.logf("snapshot at index %d, %d entries retained", n.snapIndex, len(n.log))
	return nil
}

// --- propose / read paths ---

// propose appends a command as leader and waits for commit + apply,
// returning the state machine's result. ErrNotLeader (with hint) when
// not leading; ErrLeadershipLost when deposed before the ack.
func (n *Node) propose(ctx context.Context, c Command) error {
	body, err := encodeCommand(c)
	if err != nil {
		return err
	}
	start := time.Now()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.role != leader {
		err := n.notLeaderLocked()
		n.mu.Unlock()
		return err
	}
	n.m.proposals.Inc()
	idx := n.lastIndexLocked() + 1
	w := waiter{term: n.term, ch: make(chan error, 1)}
	if err := n.appendLocalLocked(body); err != nil {
		n.mu.Unlock()
		n.m.proposalFailures.Inc()
		return fmt.Errorf("replica: appending proposal: %w", err)
	}
	n.waiters[idx] = w
	n.kickPeersLocked()
	n.mu.Unlock()

	select {
	case res := <-w.ch:
		if res == nil {
			n.m.commitLatency.Observe(time.Since(start).Seconds())
		} else {
			n.m.proposalFailures.Inc()
		}
		return res
	case <-ctx.Done():
		n.mu.Lock()
		delete(n.waiters, idx)
		n.mu.Unlock()
		n.m.proposalFailures.Inc()
		return fmt.Errorf("replica: proposal at index %d unresolved: %w", idx, ctx.Err())
	case <-n.stopc:
		n.m.proposalFailures.Inc()
		return ErrClosed
	}
}

// readIndex returns a commit frontier such that serving a read after
// waiting for it to apply is linearizable: on the leader, the commit
// index after a probe-quorum confirms the term; on a follower, the
// frontier fetched from the leader.
func (n *Node) readIndex(ctx context.Context) (uint64, error) {
	n.m.readIndexes.Inc()
	n.mu.Lock()
	isLeader := n.role == leader
	leaderID := n.leaderID
	n.mu.Unlock()
	if isLeader {
		return n.leaderReadIndex(ctx)
	}
	if leaderID == 0 || leaderID == n.id {
		return 0, n.notLeaderErr()
	}
	pc := n.clients[leaderID]
	if pc == nil {
		return 0, n.notLeaderErr()
	}
	resp, err := pc.call(&rpcRequest{Kind: rpcReadIndex, From: n.id, Term: n.termNow()})
	if err != nil {
		return 0, fmt.Errorf("replica: read-index via leader %d: %w", leaderID, err)
	}
	if !resp.Success {
		return 0, n.notLeaderErr()
	}
	return resp.ReadIndex, nil
}

func (n *Node) notLeaderErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.notLeaderLocked()
}

// leaderReadIndex runs the leader half of read-index: wait until an
// entry of the current term is committed (the election no-op), take
// the commit index, then confirm the term against a probe quorum.
func (n *Node) leaderReadIndex(ctx context.Context) (uint64, error) {
	var ri, term uint64
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return 0, ErrClosed
		}
		if n.role != leader {
			err := n.notLeaderLocked()
			n.mu.Unlock()
			return 0, err
		}
		if n.termAtLocked(n.commitIndex) == n.term {
			ri, term = n.commitIndex, n.term
			n.mu.Unlock()
			break
		}
		ch := n.progress
		n.mu.Unlock()
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("replica: waiting for term commit: %w", ctx.Err())
		case <-n.stopc:
			return 0, ErrClosed
		case <-ch:
		}
	}
	if err := n.confirmLeadership(ctx, term); err != nil {
		return 0, err
	}
	return ri, nil
}

// confirmLeadership fans a probe to every peer and succeeds when a
// majority (self included) acknowledges the term — the guarantee that
// no newer leader has formed and our commit frontier is current.
func (n *Node) confirmLeadership(ctx context.Context, term uint64) error {
	if len(n.peers) == 0 {
		return nil
	}
	acks := make(chan bool, len(n.peers))
	req := &rpcRequest{Kind: rpcProbe, From: n.id, Term: term}
	for _, p := range n.peers {
		pc := n.clients[p.ID]
		n.spawn(func() {
			resp, err := pc.call(req)
			ok := err == nil && resp.Term == term && resp.Success
			if err == nil && resp.Term > term {
				n.mu.Lock()
				if !n.closed && resp.Term > n.term {
					n.stepDownLocked(resp.Term)
				}
				n.mu.Unlock()
			}
			acks <- ok
		})
	}
	need := n.quorum() - 1 // self already counts
	got, failed := 0, 0
	for got < need {
		if failed > len(n.peers)-need {
			return ErrNoQuorum
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replica: confirming leadership: %w", ctx.Err())
		case <-n.stopc:
			return ErrClosed
		case ok := <-acks:
			if ok {
				got++
			} else {
				failed++
			}
		}
	}
	return nil
}

// waitApplied blocks until the state machine has applied at least
// idx.
func (n *Node) waitApplied(ctx context.Context, idx uint64) error {
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return ErrClosed
		}
		if n.applied >= idx {
			n.mu.Unlock()
			return nil
		}
		ch := n.progress
		n.mu.Unlock()
		select {
		case <-ctx.Done():
			return fmt.Errorf("replica: waiting for apply of %d: %w", idx, ctx.Err())
		case <-n.stopc:
			return ErrClosed
		case <-ch:
		}
	}
}
