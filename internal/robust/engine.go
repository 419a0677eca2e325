package robust

import (
	"cmp"
	"context"
	"errors"
	"sync"
	"time"
)

// source is one direction's part of the speculative-access engine: a
// write claims coded indices to put until N commit (spread.go), a read
// claims its holders' shares to get until the decoder completes
// (read.go). Its methods run under the engine's lock.
type source interface {
	room(slot int) int   // how many more indices slot may claim; 0 retires its workers
	ready(slot int) bool // whether slot has an index it could take now
	// take appends up to want indices for slot to dst and reserves them.
	take(slot int, dst []int, want int) []int
	// landed records index i resolved on slot with size bytes and
	// reports whether that completes the access.
	landed(slot, i, size int) (complete bool)
	// failed records index i failing on slot and reports whether the
	// access should give up. settled says the failure changes nothing
	// any more: the access is over, or a probe landed in its place.
	failed(slot, i int, settled bool) (giveUp bool)
	// serial reports whether a run's entries are served one after
	// another (a PutStream), so its time per entry predicts its finish.
	// A GetStream asks for every entry at once; such runs are judged
	// by stalls alone.
	serial() bool
}

// claimSize is how many indices a worker reserves against a need of n
// when claimed of it are resolved or reserved in flight: what is still
// needed, at most one equal run and the store's run length, and no
// floor.
func claimSize(n, claimed, runLen, maxRun int) int {
	return max(0, min(n-claimed, runLen, maxRun))
}

// runView is what an idle worker knows of one in-flight run, all from
// this access's own ack times.
type runView struct {
	claimed time.Time // when the run was claimed
	lastAck time.Time // its latest ack; zero before the first
	acked   int       // entries resolved so far
	left    int       // entries neither resolved nor covered by a probe
	// firstAck is how long after its claim its first ack is due, from
	// its slot's or else the idle worker's first acks; 0: unknown.
	firstAck time.Duration
}

// lateFloor is the shortest time per entry late judges by: below it,
// acks wait on the client's goroutines being scheduled, not on servers.
const lateFloor = time.Millisecond

// late reports whether an idle worker whose own time per entry is self
// (0: judge stalls only) should probe past run r at now. Times run from
// the claim, as self's do. A run's time per entry is what its acks
// show, else its first-ack time, and at least lateFloor. The run is
// late when it has had no ack for two of its entry-times (stalled), or
// when its expected finish — last ack plus its uncovered entries times
// its time per entry — is further off than self. stallAt is when it
// stalls if nothing more is heard: zero once it has, and when nothing
// tells.
func late(now time.Time, r runView, self time.Duration) (isLate bool, stallAt time.Time) {
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
	per = max(per, lateFloor)
	stallAt = since.Add(2 * per)
	if !now.Before(stallAt) {
		return true, time.Time{}
	}
	return r.acked > 0 && self > 0 && r.lastAck.Add(time.Duration(r.left)*per).Sub(now) > self, stallAt
}

// engine is one access's claim state (§4.3.2, §4.3.3), the one
// implementation of the speculative-access policy. Each slot, a server
// or a holder, has perServerParallel workers. A worker claims a run
// against the need, at most one equal run; with nothing to claim it
// probes one entry past a run on another slot that is late (see late),
// and otherwise waits on wake, broadcast on every ack, finished run,
// worker exit, raised need or alarm, and at the end. The fields after
// mu are guarded by it.
type engine struct {
	ctx     context.Context
	cancel  context.CancelFunc
	src     source
	runLen  int // ceil(first need / workers): the most a later claim takes
	workers []worker

	mu      sync.Mutex
	wake    sync.Cond
	alarm   *time.Timer
	alarmAt time.Time // zero: the alarm is not set
	need    int
	claimed int // resolved plus reserved in flight
	probes  int
	slots   []engineSlot
	runs    []*run // claimed and not yet finished
	done    bool
}

// engineSlot is one slot's workers and pace.
type engineSlot struct {
	live int // workers still running
	// pace is the time per entry, from claim to ack, of its latest run
	// with a resolved entry: its idle worker's own rate.
	pace time.Duration
	// firstAck is the claim-to-first-ack time of its latest answered run
	// over that run's size (a refusal answers too): a run of n is due
	// to answer n·firstAck after its claim, late for a store that acks
	// entries as they land.
	firstAck time.Duration
	scratch  int // deal's room left; stuck's workers in stalled runs
}

// run is one claimed run: a reserved slice of the need, or a one-entry
// probe past a late run.
type run struct {
	slot             int
	size             int
	claimed, lastAck time.Time
	acked, landed    int
	err              error // its most telling failure (see finish)
	covered          int   // probes sent past its tail and not failed
	// replaced counts entries whose reservation a landed probe took
	// over: their own outcome no longer moves the need.
	replaced int
	probe    bool
	probeOf  *run // the run a probe covers; nil once that run is finished
}

// worker is one worker's state, reused across its runs.
type worker struct {
	slot, maxRun int
	first        int   // the run deal gives it
	indices      []int // the current run's indices
	run          run
}

var errNoAnswer = errors.New("robust: no entry of the run answered")

// newEngine returns an engine for a first need of need entries, with
// one slot per store, whose workers take runs up to its run length.
// Ending it cancels ctx.
func newEngine(ctx context.Context, cancel context.CancelFunc, src source, need int, stores []attached) *engine {
	n := perServerParallel * len(stores)
	e := &engine{ctx: ctx, cancel: cancel, src: src, need: need, slots: make([]engineSlot, len(stores)),
		workers: make([]worker, 0, n), runs: make([]*run, 0, n)}
	e.wake.L = &e.mu
	context.AfterFunc(ctx, e.ring)
	runs := 0
	for _, a := range stores {
		runs += a.run
	}
	arena := make([]int, perServerParallel*runs) // every worker's run indices
	for p := 0; p < perServerParallel; p++ {
		for slot, a := range stores {
			e.workers = append(e.workers, worker{slot: slot, maxRun: a.run, indices: arena[:0:a.run]})
			arena = arena[a.run:]
			e.slots[slot].live++
		}
	}
	e.runLen = max((need+len(e.workers)-1)/max(len(e.workers), 1), 1)
	return e
}

// start claims every worker's first run, then runs each worker's loop
// on its own goroutine, counted in wg.
func (e *engine) start(wg *sync.WaitGroup, loop func(w *worker)) {
	e.deal()
	for i := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer e.exit(w.slot)
			loop(w)
		}(&e.workers[i])
	}
}

// deal claims every worker's first run before any starts, dealing the
// need one index at a time to the workers in turn, each up to its run
// length and its slot's room. Indices are taken in worker order (each
// slot's first pipeline, then each second), so a write server's two
// runs lie apart in the index space.
func (e *engine) deal() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.slots {
		e.slots[i].scratch = e.src.room(i)
	}
	for left, dealt := e.need, true; left > 0 && dealt; {
		dealt = false
		for i := range e.workers {
			if w := &e.workers[i]; left > 0 && w.first < w.maxRun && e.slots[w.slot].scratch > 0 {
				w.first++
				e.slots[w.slot].scratch--
				left--
				dealt = true
			}
		}
	}
	now := time.Now()
	for i := range e.workers {
		// The room is read again: slots can share a cap (a zone).
		w := &e.workers[i]
		if want := min(w.first, e.src.room(w.slot)); want > 0 {
			if w.indices = e.src.take(w.slot, w.indices[:0], want); len(w.indices) > 0 {
				e.claim(w, nil, now)
			}
		}
	}
}

// take gives worker w its next run, in w.run and w.indices, or reports
// false when the access is over or stuck or w's slot has no room. With
// nothing to claim or probe it waits for a wake-up or the moment a run
// could stall.
func (e *engine) take(w *worker) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		w.indices = w.indices[:0]
		room := e.src.room(w.slot)
		if e.done || e.ctx.Err() != nil || room <= 0 {
			return false
		}
		now := time.Now()
		probeOf, wakeAt := e.lateRun(w.slot, now)
		want := min(claimSize(e.need, e.claimed, e.runLen, w.maxRun), room)
		if want > 0 {
			probeOf = nil
		} else if probeOf != nil {
			want = 1
		}
		if w.indices = e.src.take(w.slot, w.indices, want); len(w.indices) > 0 {
			e.claim(w, probeOf, now)
			return true
		}
		if e.stuck(w.slot, now) {
			e.end()
			return false
		}
		e.wait(wakeAt)
	}
}

// claim records w.indices as w's run: a probe past probeOf, or else a
// reservation against the need.
func (e *engine) claim(w *worker, probeOf *run, now time.Time) {
	w.run = run{slot: w.slot, size: len(w.indices), claimed: now, probe: probeOf != nil, probeOf: probeOf}
	if probeOf != nil {
		probeOf.covered++
		e.probes++
	} else {
		e.claimed += len(w.indices)
	}
	e.runs = append(e.runs, &w.run)
}

// wait releases mu until the next wake-up, or at (when set): the
// engine's one alarm rings for its earliest waiter.
func (e *engine) wait(at time.Time) {
	if !at.IsZero() && (e.alarmAt.IsZero() || at.Before(e.alarmAt)) {
		e.alarmAt = at
		if e.alarm == nil {
			e.alarm = time.AfterFunc(time.Until(at), e.ring)
		} else {
			e.alarm.Reset(time.Until(at))
		}
	}
	e.wake.Wait()
}

// ring wakes every waiting worker.
func (e *engine) ring() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.alarmAt = time.Time{}
	e.wake.Broadcast()
}

// view is run r as the idle worker of slot judges it.
func (e *engine) view(r *run, slot int) runView {
	return runView{claimed: r.claimed, lastAck: r.lastAck, acked: r.acked, left: r.size - r.acked - r.covered,
		firstAck: time.Duration(r.size) * cmp.Or(e.slots[r.slot].firstAck, e.slots[slot].firstAck)}
}

// lateRun returns a run on another slot that the worker of slot should
// probe past, if any, and the next moment such a run could stall.
func (e *engine) lateRun(slot int, now time.Time) (lateOne *run, wakeAt time.Time) {
	var self time.Duration // judge stalls only
	if e.src.serial() {
		self = e.slots[slot].pace
	}
	for _, r := range e.runs {
		if r.slot == slot {
			continue
		}
		isLate, at := late(now, e.view(r, slot), self)
		if isLate && lateOne == nil {
			lateOne = r
		}
		if !at.IsZero() && (wakeAt.IsZero() || at.Before(wakeAt)) {
			wakeAt = at
		}
	}
	return lateOne, wakeAt
}

// stuck reports whether the access can never meet its need: part of it
// is unclaimed, every run in flight has stalled (as the worker of slot
// judges it), and no live worker outside those runs has an index to
// take. Runs that cover the need are waited for, however slow.
func (e *engine) stuck(slot int, now time.Time) bool {
	if len(e.runs) > 0 && e.claimed >= e.need {
		return false
	}
	for i := range e.slots {
		e.slots[i].scratch = 0
	}
	for _, r := range e.runs {
		if stalled, _ := late(now, e.view(r, slot), 0); !stalled {
			return false
		}
		e.slots[r.slot].scratch++
	}
	for i, s := range e.slots {
		if s.live > s.scratch && e.src.ready(i) {
			return false
		}
	}
	return true
}

// ack resolves one entry of run r: index i, size bytes, err its outcome.
// It reports whether this ack completed the access.
func (e *engine) ack(r *run, i, size int, err error) (completed bool) {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.wake.Broadcast()
	r.acked++
	r.lastAck = now
	s := &e.slots[r.slot]
	if r.acked == 1 {
		// At least 1ns: a zero estimate reads as "unknown", and a run
		// stalled forever would then never turn late.
		s.firstAck = max(now.Sub(r.claimed)/time.Duration(r.size), time.Nanosecond)
	}
	if err == nil {
		r.landed++
		s.pace = max(now.Sub(r.claimed)/time.Duration(r.acked), time.Nanosecond)
		switch {
		case r.probe && r.probeOf != nil:
			r.probeOf.replaced++ // the covered entry's reservation is this one
		case r.probe, r.replaced > 0:
			e.claimed++ // resolved beyond what was reserved
			r.replaced = max(r.replaced-1, 0)
		}
		completed = e.src.landed(r.slot, i, size) && !e.done
		if completed {
			e.end()
		}
		return completed
	}
	if r.err == nil || errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded) {
		r.err = err
	}
	settled := r.replaced > 0 || e.done || e.ctx.Err() != nil
	switch {
	case r.replaced > 0:
		r.replaced-- // a probe already landed in its place
	case !r.probe:
		e.claimed--
	case r.probeOf != nil:
		r.probeOf.covered--
	}
	if e.src.failed(r.slot, i, settled) {
		e.end()
	}
	return false
}

// raise lifts the need to need once resolved entries have met the
// current one: the access is still short after all it claimed came in.
func (e *engine) raise(resolved, need int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if resolved >= e.need && need > e.need {
		e.need = need
		e.wake.Broadcast()
	}
}

// finish retires run r, so its worker may reuse it, and returns its
// health outcome: nil once any entry landed, else its most telling
// failure, a cancellation only when nothing else failed.
func (e *engine) finish(r *run) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for j, q := range e.runs {
		if q == r {
			e.runs[j] = e.runs[len(e.runs)-1]
			e.runs = e.runs[:len(e.runs)-1]
			break
		}
	}
	for _, q := range e.runs {
		if q.probeOf == r {
			q.probeOf = nil
		}
	}
	e.settle(r.slot)
	if r.landed > 0 {
		return nil
	}
	return cmp.Or(r.err, errNoAnswer)
}

// exit retires a worker of slot.
func (e *engine) exit(slot int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.slots[slot].live--
	e.settle(slot)
}

// settle wakes the waiting workers, ending the access first when
// nothing is in flight and no live worker has anything to take.
func (e *engine) settle(slot int) {
	if len(e.runs) == 0 && e.stuck(slot, time.Now()) {
		e.end()
	}
	e.wake.Broadcast()
}

// end stops the access: waiting workers return and in-flight requests
// are canceled.
func (e *engine) end() {
	if !e.done {
		e.done = true
		e.cancel()
		if e.alarm != nil {
			e.alarm.Stop()
		}
		e.wake.Broadcast()
	}
}
