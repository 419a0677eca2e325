package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/metadata"
	"repro/internal/robust"
)

// opTimeout bounds one op; an op that outlives it fails, and a failed
// op's latency sample is opTimeout, so it misses any latency limit.
const opTimeout = 60 * time.Second

// maxInFlight bounds the open-loop generator's concurrent ops; past it
// the generator waits, and the wait shows as lateness.
const maxInFlight = 256

var errMismatch = errors.New("read returned wrong content")

// record is one executed op.
type record struct {
	kind  opKind
	name  string
	lat   time.Duration
	err   error
	bytes int64 // user bytes moved
	rs    robust.ReadStats
	ws    robust.WriteStats
	sent  time.Time // when the op was due (open loop) or started
	// orphans counts the blocks the servers still held for a segment
	// after its Delete succeeded; the run removes them.
	orphans int
}

// runner executes a workload's ops against one cluster.
type runner struct {
	sp    spec
	cl    *cluster
	pool  *contentPool
	gen   *generator
	gates *gates
	bufs  sync.Pool // *[]byte write buffers of sp.objBytes
}

func newRunner(sp spec, seed int64, cl *cluster, pool *contentPool) *runner {
	r := &runner{sp: sp, cl: cl, pool: pool, gen: newGenerator(sp, seed), gates: newGates()}
	r.bufs.New = func() any {
		b := make([]byte, sp.objBytes)
		return &b
	}
	return r
}

// exec runs one op and checks its output: a read must return exactly
// the object's content. The latency runs from due, when the op was
// due in open loop, or from the call in closed loop (zero due).
func (r *runner) exec(ctx context.Context, o op, due time.Time) record {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	rec := record{kind: o.kind, name: o.name}
	var buf *[]byte
	if o.kind == opWrite {
		buf = r.bufs.Get().(*[]byte)
		defer r.bufs.Put(buf)
		r.pool.fill(o.name, *buf)
	}
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	rec.sent = due
	var data []byte
	s := r.cl.tracer.beginOp(o.kind, o.name)
	switch o.kind {
	case opRead:
		data, rec.rs, rec.err = r.cl.client.Read(ctx, o.name)
	case opWrite:
		rec.ws, rec.err = r.cl.client.Write(ctx, o.name, *buf, nil)
	case opDelete:
		rec.err = r.cl.client.Delete(ctx, o.name)
	}
	r.cl.tracer.endOp(s, rec.err)
	rec.lat = time.Since(due)
	if rec.err == nil && o.kind == opRead && !r.pool.matches(o.name, data, r.sp.objBytes) {
		rec.err = errMismatch
	}
	switch {
	case rec.err != nil:
		rec.lat = opTimeout
	case o.kind == opDelete:
		rec.orphans = r.cl.sweep(ctx, o.name)
	default:
		rec.bytes = r.sp.objBytes
	}
	return rec
}

// drive runs ops closed loop on workers goroutines until next reports
// none left. next is called serially, and ops on one name run in the
// order next returned them.
func (r *runner) drive(ctx context.Context, workers int, next func() (op, bool)) []record {
	var (
		mu   sync.Mutex
		recs []record
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				o, ok := next()
				var turn <-chan struct{}
				if ok {
					turn = r.gates.enter(o.name)
				}
				mu.Unlock()
				if !ok {
					return
				}
				<-turn
				rec := r.exec(ctx, o, time.Time{})
				r.gates.leave(o.name)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

// fromList yields ops in order.
func fromList(ops []op) func() (op, bool) {
	return func() (op, bool) {
		if len(ops) == 0 {
			return op{}, false
		}
		o := ops[0]
		ops = ops[1:]
		return o, true
	}
}

// planned yields the generator's next n ops, then any evicting deletes
// they queued.
func (r *runner) planned(n int) func() (op, bool) {
	return func() (op, bool) {
		if n <= 0 && len(r.gen.pending) == 0 {
			return op{}, false
		}
		n--
		return r.gen.take(), true
	}
}

// phase is one measured window.
type phase struct {
	recs    []record
	late    []time.Duration // open loop: how late each op was sent
	elapsed time.Duration   // until the last op of the window finished
	cpu     time.Duration   // process user+sys CPU
	wire    int64           // bytes through the block servers' sockets
	t0, t1  int64           // tracer clock at start and end
}

// measure runs the workload for window: open loop at sp.rate, or
// closed loop with one worker per CPU.
func (r *runner) measure(ctx context.Context, window time.Duration) phase {
	ph := phase{t0: r.cl.tracer.now()}
	cpu0, wire0 := cpuTime(), r.cl.wireBytes()
	start := time.Now()
	if r.sp.rate > 0 {
		ph.recs, ph.late = r.openLoop(ctx, window)
	} else {
		ph.recs = r.drive(ctx, runtime.NumCPU(), func() (op, bool) {
			if time.Since(start) >= window && len(r.gen.pending) == 0 {
				return op{}, false
			}
			return r.gen.take(), true
		})
	}
	ph.elapsed = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.wire = r.cl.wireBytes() - wire0
	ph.t1 = r.cl.tracer.now()
	return ph
}

// openLoop sends each op at its planned time whether or not earlier
// ops have finished, and times it from then.
func (r *runner) openLoop(ctx context.Context, window time.Duration) (recs []record, late []time.Duration) {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, maxInFlight)
	)
	r.gen.schedule(window)
	start := time.Now()
	for len(r.gen.dues) > 0 {
		due := start.Add(r.gen.dues[0])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		late = append(late, time.Since(due))
		o := r.gen.take()
		turn := r.gates.enter(o.name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			<-turn
			rec := r.exec(ctx, o, due)
			r.gates.leave(o.name)
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return recs, late
}

// setupDeadline bounds set-up's first write. A transport that hangs
// (see README.md on 1 MiB blocks) fails set-up fast instead of stalling
// the run until the watchdog.
const setupDeadline = 20 * time.Second

// setup starts a cluster, preloads it and warms it up: the work
// setup_s times. It returns the preload writes' records.
func setup(ctx context.Context, sp spec, seed int64, t *tracer, pool *contentPool) (*runner, []record, error) {
	cl, err := newCluster(sp, seed, t)
	if err != nil {
		return nil, nil, fmt.Errorf("start cluster: %w", err)
	}
	r := newRunner(sp, seed, cl, pool)
	var ops []op
	for _, name := range r.gen.preloadNames() {
		ops = append(ops, op{kind: opWrite, name: name})
	}
	done := make(chan record, 1)
	go func() { done <- r.exec(ctx, ops[0], time.Time{}) }()
	var first record
	select {
	case first = <-done:
	case <-time.After(setupDeadline):
		// The hung write cannot be canceled from here; leaving the
		// process is the only way to stop it.
		fmt.Fprintf(os.Stderr, "clusterbench: set-up write of %s did not finish within %v: transport hang\n", ops[0].name, setupDeadline)
		os.Exit(2)
	}
	loaders := sp.loaders
	if loaders == 0 {
		loaders = runtime.NumCPU()
	}
	recs := append([]record{first}, r.drive(ctx, loaders, fromList(ops[1:]))...)
	recs = append(recs, r.drive(ctx, runtime.NumCPU(), r.planned(sp.warmup))...)
	for _, rec := range recs {
		if rec.err != nil {
			cl.close()
			return nil, nil, fmt.Errorf("set-up %s %s: %w", rec.kind, rec.name, rec.err)
		}
	}
	return r, recs[:len(ops)], nil
}

// deleteAll deletes every live object, closed loop.
func (r *runner) deleteAll(ctx context.Context) []record {
	var ops []op
	for _, name := range r.gen.live {
		ops = append(ops, op{kind: opDelete, name: name})
	}
	r.gen.live = nil
	return r.drive(ctx, runtime.NumCPU(), fromList(ops))
}

// checkDeleted reads every deleted name back; each must be not-found.
func (r *runner) checkDeleted(ctx context.Context, recs []record) (checked int, failures []string) {
	for _, rec := range recs {
		if rec.kind != opDelete || rec.err != nil {
			continue
		}
		checked++
		_, _, err := r.cl.client.Read(ctx, rec.name)
		if !errors.Is(err, metadata.ErrSegmentNotFound) {
			failures = append(failures, fmt.Sprintf("deleted %s read back with error %v", rec.name, err))
		}
	}
	return checked, failures
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// window holds the end-to-end figures of a set of ops. Only the
// medians are steady enough to gate; the tails, the standard deviation
// and deletes go to the traced run's report.
type window struct {
	readP50, readP90, readP99, readSD float64 // ms
	writeP50, writeP90, writeP99      float64 // ms
	deleteP50                         float64 // ms
	goodput                           float64 // MB/s
	ioOverhead                        float64
	wirePerUser                       float64
	cpuPerGB                          float64 // s/GB
	reads, writes, deletes            int
}

// figures summarizes a phase. writes and deletes, when the phase has
// none of its own, supply those latencies instead.
func figures(ph phase, writes, deletes []record) window {
	var w window
	var readLat, writeLat, delLat []float64
	var user int64
	var reception float64
	var okReads int
	for _, rec := range ph.recs {
		user += rec.bytes
		switch rec.kind {
		case opRead:
			readLat = append(readLat, ms(rec.lat))
			if rec.err == nil {
				reception += rec.rs.Reception
				okReads++
			}
		case opWrite:
			writeLat = append(writeLat, ms(rec.lat))
		case opDelete:
			delLat = append(delLat, ms(rec.lat))
		}
	}
	if len(writeLat) == 0 {
		for _, rec := range writes {
			writeLat = append(writeLat, ms(rec.lat))
		}
	}
	if len(delLat) == 0 {
		for _, rec := range deletes {
			delLat = append(delLat, ms(rec.lat))
		}
	}
	w.reads, w.writes, w.deletes = len(readLat), len(writeLat), len(delLat)
	w.readSD = stddev(readLat)
	w.readP50, w.readP90, w.readP99 = median(readLat), quantile(readLat, 0.9), quantile(readLat, 0.99)
	w.writeP50, w.writeP90, w.writeP99 = median(writeLat), quantile(writeLat, 0.9), quantile(writeLat, 0.99)
	w.deleteP50 = median(delLat)
	if okReads > 0 {
		w.ioOverhead = reception / float64(okReads)
	}
	if user > 0 {
		w.goodput = float64(user) / 1e6 / ph.elapsed.Seconds()
		w.wirePerUser = float64(ph.wire) / float64(user)
		w.cpuPerGB = ph.cpu.Seconds() / (float64(user) / 1e9)
	}
	return w
}

func stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	return math.Sqrt(sq / float64(len(xs)))
}
