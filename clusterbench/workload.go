package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/blockstore"
)

// spec describes one workload: the cluster it runs on and the load it
// offers. Every random choice of a run derives from the seed through a
// generator built from a spec.
type spec struct {
	name       string
	objBytes   int64
	blockBytes int64
	slow       bool    // serve from seeded heterogeneous SlowStores
	preload    int     // objects written during set-up
	loaders    int     // set-up's concurrent writers (0 = one per CPU)
	warmup     int     // ops run (untimed) at the end of set-up
	rate       float64 // open-loop arrivals per second; 0 = closed loop
	readFrac   float64 // op mix; the rest splits between write and delete
	writeFrac  float64
	readWindow int // reads target the newest readWindow live objects (0 = all)
	retain     int // a write evicts the oldest object beyond this many (0 = never)
	avoid      int // reads skip the targets of the last avoid ops
	// deleteAll deletes every object after the measured window: the
	// only deletes a read-only workload issues.
	deleteAll bool
}

// workloads are the benchmark's traffic mixes; README.md says why each
// exists.
var workloads = map[string]spec{
	"hetero-read": {
		name: "hetero-read", objBytes: 256 << 10, blockBytes: 16 << 10, slow: true,
		preload: 128, loaders: 8, warmup: 16, rate: 20, readFrac: 1, avoid: 8, deleteAll: true,
	},
	"uniform-mixed": {
		name: "uniform-mixed", objBytes: 8 << 20, blockBytes: 256 << 10,
		preload: 4, warmup: 4, readFrac: 0.5, writeFrac: 0.5, readWindow: 4, retain: 4, avoid: 1,
	},
	"small-objects": {
		name: "small-objects", objBytes: 64 << 10, blockBytes: 16 << 10,
		preload: 256, warmup: 64, rate: 150, readFrac: 0.5, writeFrac: 0.25, avoid: 16,
	},
}

type opKind int

const (
	opRead opKind = iota
	opWrite
	opDelete
)

func (k opKind) String() string {
	return [...]string{"read", "write", "delete"}[k]
}

// op is one planned operation. due is when an open-loop op is sent,
// from the start of its phase (zero in closed loop).
type op struct {
	kind opKind
	name string
	due  time.Duration
}

// generator plans a workload's operations from its seed alone: the op
// sequence, the targets and the open-loop arrival times are fixed by
// (spec, seed) and never depend on how fast the system answers. It
// tracks the live object set in plan order, so a planned read always
// names an object whose write was planned earlier and whose delete was
// not.
type generator struct {
	sp      spec
	rng     *rand.Rand
	live    []string // oldest first
	recent  []string // targets of the last sp.avoid ops
	pending []op     // evicting deletes queued behind a write
	seq     int
	dues    []time.Duration // open loop: send times of the phase's remaining ops
}

func newGenerator(sp spec, seed int64) *generator {
	g := &generator{sp: sp, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	for i := 0; i < sp.preload; i++ {
		g.live = append(g.live, fmt.Sprintf("p-%04d", i))
	}
	return g
}

// preloadNames lists the objects set-up writes, in order.
func (g *generator) preloadNames() []string {
	return append([]string(nil), g.live[:g.sp.preload]...)
}

// schedule plans the send times of an open-loop phase of length
// window: round(rate·window) arrivals placed uniformly at random in the
// window and sorted — a Poisson process conditioned on its count, so
// every phase of a given length offers the same amount of work.
func (g *generator) schedule(window time.Duration) {
	n := int(math.Round(g.sp.rate * window.Seconds()))
	g.dues = g.dues[:0]
	for i := 0; i < n; i++ {
		g.dues = append(g.dues, time.Duration(g.rng.Int63n(int64(window))))
	}
	sort.Slice(g.dues, func(i, j int) bool { return g.dues[i] < g.dues[j] })
}

// take plans the next op.
func (g *generator) take() op {
	if len(g.pending) > 0 {
		o := g.pending[0]
		g.pending = g.pending[1:]
		return o
	}
	var due time.Duration
	if len(g.dues) > 0 {
		due, g.dues = g.dues[0], g.dues[1:]
	}
	o := op{kind: g.drawKind(), due: due}
	switch o.kind {
	case opRead:
		o.name = g.pickRead()
	case opWrite:
		o.name = fmt.Sprintf("w-%06d", g.seq)
		g.seq++
		g.live = append(g.live, o.name)
		if g.sp.retain > 0 && len(g.live) > g.sp.retain {
			g.pending = append(g.pending, op{kind: opDelete, name: g.live[0], due: due})
			g.live = g.live[1:]
		}
	case opDelete:
		o.name = g.live[0]
		g.live = g.live[1:]
	}
	g.remember(o.name)
	return o
}

// drawKind samples the op mix, steering the live set back toward its
// preload size when a random walk of writes and deletes has moved it
// by half.
func (g *generator) drawKind() opKind {
	u := g.rng.Float64()
	switch {
	case u < g.sp.readFrac:
		return opRead
	case u < g.sp.readFrac+g.sp.writeFrac:
		if g.sp.retain == 0 && len(g.live) > g.sp.preload*3/2 {
			return opDelete
		}
		return opWrite
	default:
		if len(g.live) < g.sp.preload/2 {
			return opWrite
		}
		return opDelete
	}
}

// pickRead chooses uniformly among the newest readWindow live objects,
// skipping recently targeted ones so that two in-flight ops rarely
// share a name.
func (g *generator) pickRead() string {
	cands := g.live
	if w := g.sp.readWindow; w > 0 && len(cands) > w {
		cands = cands[len(cands)-w:]
	}
	fresh := make([]string, 0, len(cands))
	for _, n := range cands {
		if !g.isRecent(n) {
			fresh = append(fresh, n)
		}
	}
	if len(fresh) == 0 {
		fresh = cands
	}
	return fresh[g.rng.Intn(len(fresh))]
}

func (g *generator) isRecent(name string) bool {
	for _, r := range g.recent {
		if r == name {
			return true
		}
	}
	return false
}

func (g *generator) remember(name string) {
	if g.sp.avoid == 0 {
		return
	}
	g.recent = append(g.recent, name)
	if len(g.recent) > g.sp.avoid {
		g.recent = g.recent[1:]
	}
}

// contentPool is the seed's source of object bytes: an object is the
// pool read cyclically from an offset hashed from its name, so content
// can be regenerated from (seed, name) at memory speed, compared
// without allocating, and two objects differ unless their offsets
// collide. The pool length is odd so block boundaries never align with
// its period.
type contentPool struct {
	buf []byte
}

const poolBytes = 1<<20 + 7

func newContentPool(seed int64) *contentPool {
	p := &contentPool{buf: make([]byte, poolBytes)}
	rand.New(rand.NewSource(seed)).Read(p.buf)
	return p
}

func (p *contentPool) offset(name string) int {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int(h.Sum64() % uint64(len(p.buf)))
}

// fill writes name's content into dst.
func (p *contentPool) fill(name string, dst []byte) {
	off := p.offset(name)
	for n := 0; n < len(dst); {
		c := copy(dst[n:], p.buf[off:])
		n += c
		off = 0
	}
}

// matches reports whether got is exactly name's content of size bytes.
func (p *contentPool) matches(name string, got []byte, size int64) bool {
	if int64(len(got)) != size {
		return false
	}
	off := p.offset(name)
	for n := 0; n < len(got); {
		want := p.buf[off:]
		if rest := len(got) - n; len(want) > rest {
			want = want[:rest]
		}
		if !bytes.Equal(got[n:n+len(want)], want) {
			return false
		}
		n += len(want)
		off = 0
	}
	return true
}

// slowProfiles gives the hetero-read fleet, by rank, and the seeds of
// each SlowStore's draws. The fleet is fixed: rank i has a base
// latency of 12 + 36i/7 ms and a bandwidth of 6–15 MB/s paired by a
// fixed shuffle, all with 12 ms of jitter, and ranks 1 and 6 stall 2 %
// of requests for 150 ms. Only the draws come from the seed, so runs
// with different seeds stay comparable. newCluster deals the ranks by
// address order (see there).
func slowProfiles(seed int64, servers int) (profiles []blockstore.SlowProfile, seeds []int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x510e))
	last := float64(servers - 1)
	for rank := 0; rank < servers; rank++ {
		p := blockstore.SlowProfile{
			BaseLatency:   time.Duration((12 + 36*float64(rank)/last) * float64(time.Millisecond)),
			JitterLatency: 12 * time.Millisecond,
			Bandwidth:     (6 + 9*float64(rank*3%servers)/last) * 1e6,
		}
		if rank == 1 || rank == servers-2 {
			p.StallRate, p.StallTime = 0.02, 150*time.Millisecond
		}
		profiles = append(profiles, p)
		seeds = append(seeds, rng.Int63())
	}
	return profiles, seeds
}

// gates serializes ops on one name in the order they were dispatched:
// a read planned after a write of the same object runs after it, a
// delete waits out reads planned before it, and no two in-flight ops
// ever share a name — which is what lets trace spans join their op by
// segment name.
type gates struct {
	mu sync.Mutex
	q  map[string][]chan struct{}
}

func newGates() *gates { return &gates{q: make(map[string][]chan struct{})} }

// enter queues an op on name; the returned channel closes when it is
// the op's turn. Callers enter in dispatch order.
func (g *gates) enter(name string) <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch := make(chan struct{})
	g.q[name] = append(g.q[name], ch)
	if len(g.q[name]) == 1 {
		close(ch)
	}
	return ch
}

// leave ends the running op on name and admits the next one.
func (g *gates) leave(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	q := g.q[name][1:]
	if len(q) == 0 {
		delete(g.q, name)
		return
	}
	g.q[name] = q
	close(q[0])
}

// kOf is the number of original blocks of an object.
func (sp spec) kOf() int {
	return int((sp.objBytes + sp.blockBytes - 1) / sp.blockBytes)
}

// nOf is the write's commit target under the client's default
// redundancy of 3.
func (sp spec) nOf() int { return int(math.Ceil(4 * float64(sp.kOf()))) }
