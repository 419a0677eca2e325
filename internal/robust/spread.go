package robust

import (
	"cmp"
	"context"
	"sync"
	"time"
)

// claimSize is how many indices a write worker reserves against a
// chunk's commit target n when claimed of it are already committed or
// reserved in flight: what is still needed, at most one equal run and
// at most the store's run length. There is no floor: a worker with
// nothing left to claim claims nothing, and a stale or overshot need
// (claimed ≥ n) claims nothing too.
func claimSize(n, claimed, runLen, maxRun int) int {
	return max(0, min(n-claimed, runLen, maxRun))
}

// runView is what an idle worker knows of one in-flight run, all from
// this write's own ack times.
type runView struct {
	claimed time.Time // when the run was claimed
	lastAck time.Time // its latest ack; zero before the first
	acked   int       // entries resolved so far
	left    int       // entries neither resolved nor covered by a probe
	// firstAck is how long after its claim the run's first ack is due:
	// its server's latest claim-to-first-ack time, else the idle
	// worker's own; 0 if neither is known.
	firstAck time.Duration
}

// late reports whether an idle worker whose own time per entry is self
// (0: no rate yet) should send a one-share probe past run r at now.
// Every time is measured from the run's claim, the same basis as self,
// so encoding the run counts against it as it counts in self. A run's
// time per entry is what its acks show, and before its first ack, its
// first-ack time. The run is late when it has had no ack for
// two of its entry-times (stalled), or when its expected finish — last
// ack plus its uncovered entries times its time per entry — is further
// off than self: the idle worker would land a share before the run
// would. A worker with no rate judges stalls only. When the run is not
// late, at is the next moment it would turn late if nothing more is
// heard from it (zero: waiting alone cannot make it late).
func late(now time.Time, r runView, self time.Duration) (isLate bool, at time.Time) {
	if r.left <= 0 {
		return false, time.Time{}
	}
	per, since := r.firstAck, r.claimed
	if r.acked > 0 {
		per, since = r.lastAck.Sub(r.claimed)/time.Duration(r.acked), r.lastAck
	}
	if per <= 0 {
		return false, time.Time{}
	}
	stallAt := since.Add(2 * per)
	if !now.Before(stallAt) {
		return true, time.Time{}
	}
	if r.acked > 0 && self > 0 && r.lastAck.Add(time.Duration(r.left)*per).Sub(now) > self {
		return true, time.Time{}
	}
	return false, stallAt
}

// spread is one chunk's shared write state: the fresh-index cursor, the
// retry queue, the commit need, the in-flight runs and the share caps.
// The fields after mu are guarded by it; the ones before are fixed. A
// worker with nothing to claim waits on wake, which is closed on every
// ack, failure, finished run or worker exit, and on the end of the
// spread.
type spread struct {
	ctx    context.Context
	cancel context.CancelFunc
	n      int // commit target
	graphN int // fresh indices run 0..graphN-1
	runLen int // ceil(n / workers): every worker's first claim
	base   int // the chunk's first global index
	budget int // failed puts tolerated before the spread gives up
	// serverCap and zoneCap are the most shares a server and a zone
	// may hold (zoneCap applies to servers with a zone count).
	serverCap, zoneCap int

	mu        sync.Mutex
	next      int // next fresh local index
	committed int
	claimed   int // committed plus reserved in flight; the need is n − claimed
	failed    int
	probes    int
	bytesSent int64
	retry     []int          // failed indices waiting for another server
	refused   map[int][]bool // the server slots that refused each index
	servers   []spreadServer
	runs      []*spreadRun // claimed and not yet finished
	done      bool
	wake      chan struct{}
	waiting   int
}

// spreadServer is one server's share of a spread.
type spreadServer struct {
	addr  string
	count int  // shares reserved or committed here
	zone  *int // shares reserved or committed in its zone; nil without a zone cap
	live  int  // workers still running
	// pace is the time per entry its latest acked run took from claim
	// to ack: what it takes a worker of this server to encode and land
	// a share, the idle worker's own time per entry.
	pace time.Duration
	// firstAck is the claim-to-first-ack time of its latest acked run
	// over that run's size: a run of n entries has its first ack due
	// n·firstAck after its claim. A store that acks a run only once it
	// is whole has a first-ack time of the whole run, far above its
	// time per entry; one that acks each entry as it lands answers a
	// run of n sooner than that, so the estimate errs late.
	firstAck time.Duration
	placed   []int // global indices committed here
}

// spreadRun is one claimed run: a reserved slice of the need, or a
// one-share probe past a late run.
type spreadRun struct {
	server  int
	size    int
	claimed time.Time
	lastAck time.Time
	acked   int
	covered int // probes sent past its tail and not failed
	// replaced counts entries whose reservation a successful probe
	// took over: their own outcome no longer moves the need.
	replaced int
	probe    bool
	probeOf  *spreadRun // the run a probe covers; nil once that run is finished
}

// spreadWorker is one worker's own state, reused across its runs: its
// server, its store's run length, its current run and its wait timer.
type spreadWorker struct {
	slot, maxRun int
	indices      []int // the current run's local indices
	run          spreadRun
	timer        *time.Timer
}

func newSpread(ctx context.Context, cancel context.CancelFunc, p spreadPlan, servers []spreadServer, serverCap, zoneCap int) *spread {
	runLen := (p.n + len(servers)*perServerParallel - 1) / (len(servers) * perServerParallel)
	for i := range servers {
		servers[i].placed = make([]int, 0, perServerParallel*runLen)
	}
	return &spread{
		ctx:       ctx,
		cancel:    cancel,
		serverCap: serverCap,
		zoneCap:   zoneCap,
		n:         p.n,
		graphN:    p.graphN,
		runLen:    runLen,
		base:      p.base,
		budget:    4*p.graphN + 64,
		refused:   make(map[int][]bool),
		servers:   servers,
		wake:      make(chan struct{}),
	}
}

// take gives worker w its next run, in w.run and w.indices, and
// reports false when the worker should stop: the spread is over, or
// its server or zone holds its share. The worker claims what is still
// needed; with nothing to claim it sends a one-share probe past a late
// run, and otherwise, when block is set, waits for an ack, a failure,
// the end of the spread, or the moment a run could turn late (without
// block it returns true with no run, w.indices empty).
func (s *spread) take(w *spreadWorker, block bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	srv := &s.servers[w.slot]
	for {
		w.indices = w.indices[:0]
		if s.done || s.ctx.Err() != nil {
			return false
		}
		room := s.serverCap - srv.count
		if srv.zone != nil {
			room = min(room, s.zoneCap-*srv.zone)
		}
		if room <= 0 {
			return false // this server or its failure domain has its share
		}
		var probeOf *spreadRun
		var wakeAt time.Time
		want := min(claimSize(s.n, s.claimed, s.runLen, w.maxRun), room)
		if want == 0 {
			probeOf, wakeAt = s.lateRun(w.slot, time.Now())
			if probeOf != nil {
				want = 1
			}
		}
		if want > 0 {
			if w.indices = s.indices(w.slot, w.indices, want); len(w.indices) > 0 {
				w.run = spreadRun{server: w.slot, size: len(w.indices), claimed: time.Now(), probe: probeOf != nil, probeOf: probeOf}
				if probeOf != nil {
					probeOf.covered++
					s.probes++
				} else {
					s.claimed += len(w.indices)
				}
				srv.count += len(w.indices)
				if srv.zone != nil {
					*srv.zone += len(w.indices)
				}
				s.runs = append(s.runs, &w.run)
				return true
			}
		}
		if !block {
			return true
		}
		s.wait(w, wakeAt)
	}
}

// wait releases mu until the next wake-up, the context's end, or at
// (when set), on w's timer.
func (s *spread) wait(w *spreadWorker, at time.Time) {
	ch := s.wake
	s.waiting++
	s.mu.Unlock()
	var timer <-chan time.Time
	if !at.IsZero() {
		if w.timer == nil {
			w.timer = time.NewTimer(time.Until(at))
		} else {
			w.timer.Reset(time.Until(at))
		}
		timer = w.timer.C
	}
	select {
	case <-ch:
	case <-timer:
		timer = nil
	case <-s.ctx.Done():
	}
	if timer != nil && !w.timer.Stop() {
		select { // fired but not received: drain it for the next Reset
		case <-w.timer.C:
		default:
		}
	}
	s.mu.Lock()
}

// signal wakes every waiting worker.
func (s *spread) signal() {
	if s.waiting > 0 {
		close(s.wake)
		s.wake = make(chan struct{})
		s.waiting = 0
	}
}

// lateRun returns a run on another server that the worker of slot
// should probe past, or else the next moment one could turn late.
func (s *spread) lateRun(slot int, now time.Time) (*spreadRun, time.Time) {
	self := s.servers[slot].pace
	var wakeAt time.Time
	for _, r := range s.runs {
		if r.server == slot {
			continue
		}
		isLate, at := late(now, runView{
			claimed:  r.claimed,
			lastAck:  r.lastAck,
			acked:    r.acked,
			left:     r.size - r.acked - r.covered,
			firstAck: time.Duration(r.size) * cmp.Or(s.servers[r.server].firstAck, s.servers[slot].firstAck),
		}, self)
		if isLate {
			return r, time.Time{}
		}
		if !at.IsZero() && (wakeAt.IsZero() || at.Before(wakeAt)) {
			wakeAt = at
		}
	}
	return nil, wakeAt
}

// indices appends up to want local indices for the worker of slot:
// queued retries its server has not refused first, then fresh ones off
// the cursor in cursor order.
func (s *spread) indices(slot int, dst []int, want int) []int {
	kept := s.retry[:0]
	for _, i := range s.retry {
		if len(dst) < want && !s.refused[i][slot] {
			dst = append(dst, i)
		} else {
			kept = append(kept, i)
		}
	}
	s.retry = kept
	for len(dst) < want && s.next < s.graphN {
		dst = append(dst, s.next)
		s.next++
	}
	return dst
}

// ack resolves one entry of run r: local index i, size bytes, err its
// outcome. A failed index goes back to the retry queue for another
// server, or is dropped once every live server has refused it. It
// reports whether this ack committed the share and whether it reached
// the commit target.
func (s *spread) ack(r *spreadRun, i, size int, err error) (ok, reached bool) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.signal()
	r.acked++
	r.lastAck = now
	srv := &s.servers[r.server]
	if err == nil {
		// At least 1ns: a zero estimate reads as "unknown", and a run
		// stalled forever would then never turn late.
		srv.pace = max(now.Sub(r.claimed)/time.Duration(r.acked), time.Nanosecond)
		if r.acked == 1 {
			srv.firstAck = max(now.Sub(r.claimed)/time.Duration(r.size), time.Nanosecond)
		}
		s.bytesSent += int64(size)
		srv.placed = append(srv.placed, s.base+i)
		s.committed++
		switch {
		case r.probe && r.probeOf != nil:
			r.probeOf.replaced++ // the covered entry's reservation is this commit
		case r.probe, r.replaced > 0:
			s.claimed++ // a commit beyond what was reserved
			r.replaced = max(r.replaced-1, 0)
		}
		if s.committed == s.n {
			s.end()
			return true, true
		}
		return true, false
	}
	srv.count--
	if srv.zone != nil {
		*srv.zone--
	}
	switch {
	case r.replaced > 0:
		r.replaced-- // a probe already committed in its place
		return false, false
	case !r.probe:
		s.claimed--
	case r.probeOf != nil:
		r.probeOf.covered--
	}
	if s.done || s.ctx.Err() != nil {
		return false, false
	}
	if s.failed++; s.failed > s.budget {
		s.end()
		return false, false
	}
	if s.refused[i] == nil {
		s.refused[i] = make([]bool, len(s.servers))
	}
	s.refused[i][r.server] = true
	if s.placeable(i) {
		s.retry = append(s.retry, i)
	}
	return false, false
}

// placeable reports whether some live server has not refused index i.
func (s *spread) placeable(i int) bool {
	for slot, srv := range s.servers {
		if srv.live > 0 && !s.refused[i][slot] {
			return true
		}
	}
	return false
}

// finish retires run r, so its worker may reuse it; the spread ends
// when nothing is left to claim, in flight or queued.
func (s *spread) finish(r *spreadRun) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for j, q := range s.runs {
		if q == r {
			s.runs[j] = s.runs[len(s.runs)-1]
			s.runs = s.runs[:len(s.runs)-1]
			break
		}
	}
	for _, q := range s.runs {
		if q.probeOf == r {
			q.probeOf = nil
		}
	}
	s.endIfHopeless()
	s.signal()
}

// exit retires a worker of server slot. Once a server has no worker
// left, an index that every remaining server has refused is dropped.
func (s *spread) exit(slot int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.servers[slot].live--; s.servers[slot].live == 0 {
		kept := s.retry[:0]
		for _, i := range s.retry {
			if s.placeable(i) {
				kept = append(kept, i)
			}
		}
		s.retry = kept
	}
	s.endIfHopeless()
	s.signal()
}

func (s *spread) endIfHopeless() {
	if len(s.runs) == 0 && len(s.retry) == 0 && s.next >= s.graphN {
		s.end()
	}
}

// end stops the spread: waiting workers return and in-flight puts are
// canceled.
func (s *spread) end() {
	if !s.done {
		s.done = true
		s.cancel()
		s.signal()
	}
}
