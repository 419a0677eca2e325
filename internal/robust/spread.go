package robust

import (
	"context"
	"slices"
)

// spread is one chunk's write source for the engine: the fresh-index
// cursor, the retry queue, the refusals, the share caps and the commit
// count; the need is n, and n commits end it. The fields from next on
// are guarded by the engine's lock.
type spread struct {
	e      *engine
	n      int // commit target
	graphN int // fresh indices run 0..graphN-1
	base   int // the chunk's first global index
	budget int // failed puts tolerated before the spread gives up
	// serverCap and zoneCap are the most shares a server and a zone
	// may hold (zoneCap applies to servers with a zone count).
	serverCap, zoneCap int

	next       int // next fresh local index
	committed  int
	failedPuts int
	bytesSent  int64
	retry      []int          // failed indices waiting for another server
	refused    map[int][]bool // the server slots that refused each index
	servers    []spreadServer
}

// spreadServer is one server's share of a spread.
type spreadServer struct {
	addr   string
	count  int   // shares reserved or committed here
	zone   *int  // shares reserved or committed in its zone; nil without a zone cap
	placed []int // global indices committed here
}

// newSpread returns the spread of plan p over servers, with its engine.
func newSpread(ctx context.Context, cancel context.CancelFunc, p spreadPlan, servers []spreadServer, stores []attached, serverCap, zoneCap int) *spread {
	s := &spread{
		serverCap: serverCap,
		zoneCap:   zoneCap,
		n:         p.n,
		graphN:    p.graphN,
		base:      p.base,
		budget:    4*p.graphN + 64,
		refused:   make(map[int][]bool),
		servers:   servers,
	}
	s.e = newEngine(ctx, cancel, s, p.n, stores)
	for i := range servers {
		servers[i].placed = make([]int, 0, perServerParallel*s.e.runLen)
	}
	return s
}

// room is what server slot and its zone may still hold.
func (s *spread) room(slot int) int {
	srv := &s.servers[slot]
	room := s.serverCap - srv.count
	if srv.zone != nil {
		room = min(room, s.zoneCap-*srv.zone)
	}
	return room
}

// ready reports whether a fresh index is left or a queued retry that
// server slot has not refused.
func (s *spread) ready(slot int) bool {
	return s.next < s.graphN || slices.ContainsFunc(s.retry, func(i int) bool { return !s.refused[i][slot] })
}

// take appends up to want local indices for server slot and reserves
// them against its caps: queued retries it has not refused first, then
// fresh ones off the cursor in cursor order.
func (s *spread) take(slot int, dst []int, want int) []int {
	start := len(dst)
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
	s.reserve(slot, len(dst)-start)
	return dst
}

// reserve counts d more shares (negative: fewer) against server slot
// and its zone.
func (s *spread) reserve(slot, d int) {
	srv := &s.servers[slot]
	srv.count += d
	if srv.zone != nil {
		*srv.zone += d
	}
}

func (s *spread) serial() bool { return true }

// landed commits local index i on server slot; the spread is complete
// at its commit target.
func (s *spread) landed(slot, i, size int) bool {
	srv := &s.servers[slot]
	s.bytesSent += int64(size)
	srv.placed = append(srv.placed, s.base+i)
	s.committed++
	return s.committed == s.n
}

// failed returns a failed put's reservation. Unless settled, it counts
// against the failure budget, and the index goes to the retry queue
// unless every live server has refused it.
func (s *spread) failed(slot, i int, settled bool) bool {
	s.reserve(slot, -1)
	if settled {
		return false
	}
	if s.failedPuts++; s.failedPuts > s.budget {
		return true
	}
	if s.refused[i] == nil {
		s.refused[i] = make([]bool, len(s.servers))
	}
	s.refused[i][slot] = true
	for other := range s.servers {
		if s.e.slots[other].live > 0 && !s.refused[i][other] {
			s.retry = append(s.retry, i)
			break
		}
	}
	return false
}
