// Package faultinject creates the failure regime RobuSTore is built
// to survive: not clean crashes but *sustained partial failure* —
// slow disks, flaky links, corrupt payloads (§2.2.3, §6). An Injector
// wraps real components (net.Listener/net.Conn on the server side,
// blockstore.Store behind a server handler) with deterministic,
// seedable faults so the chaos test suite and `robustored -faults`
// can drive actual client/server pairs through stalls, resets, short
// reads, and bit flips, and assert the recovery pipeline (transport
// retries, speculative reads, share checksums, degraded commits) holds.
//
// The package is stdlib-only. All fault decisions are drawn from one
// seeded *rand.Rand under a mutex, so a given (seed, request
// sequence) replays the same faults. A nil *Injector is the disabled
// state: every method no-ops and the wrappers pass through.
package faultinject

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrInjected marks a fault-injected failure, so tests can tell
// injected errors from real ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Config describes one fault mix. The zero value injects nothing.
// Probabilities are in [0, 1] and are rolled independently per
// operation (store wrapper) or per exchange (conn wrapper).
type Config struct {
	// Latency is a fixed delay added to every operation.
	Latency time.Duration
	// ParetoScale adds heavy-tailed extra latency distributed as
	// scale·(U^(-1/α) − 1): zero-minimum, occasionally enormous — the
	// paper's "slow to respond" disk. ParetoAlpha defaults to 1.5; the
	// sample is capped at 50·scale so a single draw cannot wedge a
	// test run forever.
	ParetoScale time.Duration
	ParetoAlpha float64
	// StallProb stalls an operation for Stall before serving it; with
	// DropOnStall the operation is dropped (store: ErrInjected; conn:
	// connection reset) after the stall instead — the
	// stall-then-drop shape of a dying NFS mount.
	StallProb   float64
	Stall       time.Duration
	DropOnStall bool
	// ResetProb abruptly fails the operation: the conn wrapper closes
	// the connection before responding, the store wrapper returns
	// ErrInjected without serving.
	ResetProb float64
	// ShortReadProb (conn wrapper only) writes a truncated response
	// frame and closes the connection, so the client observes a short
	// read mid-frame.
	ShortReadProb float64
	// CorruptProb (store wrapper, GET only) flips bits in the returned
	// payload — silent disk/transit corruption below any server-side
	// checksum, visible only to client-side share verification.
	CorruptProb float64
	// ErrProb fails a store operation with ErrInjected after any
	// latency has been served.
	ErrProb float64
	// Ops restricts store-level faults to the named operations
	// ("get", "put", "delete", "list", "scrub"); empty means all. The conn
	// wrapper ignores it (the wire does not know op boundaries until
	// decode).
	Ops []string
}

// enabled reports whether the config can inject anything.
func (c Config) enabled() bool {
	return c.Latency > 0 || c.ParetoScale > 0 || c.StallProb > 0 ||
		c.ResetProb > 0 || c.ShortReadProb > 0 || c.CorruptProb > 0 || c.ErrProb > 0
}

// appliesTo reports whether store-level faults cover op.
func (c Config) appliesTo(op string) bool {
	if len(c.Ops) == 0 {
		return true
	}
	for _, o := range c.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// metrics are the injector's fault counters (all nil/no-op without a
// registry): faultinject_{latency,stalls,drops,resets,short_reads,
// corruptions,errors}_total.
type metrics struct {
	latency    *obs.Counter
	stalls     *obs.Counter
	drops      *obs.Counter
	resets     *obs.Counter
	shortReads *obs.Counter
	corrupt    *obs.Counter
	errs       *obs.Counter
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		latency:    r.Counter("faultinject_latency_total"),
		stalls:     r.Counter("faultinject_stalls_total"),
		drops:      r.Counter("faultinject_drops_total"),
		resets:     r.Counter("faultinject_resets_total"),
		shortReads: r.Counter("faultinject_short_reads_total"),
		corrupt:    r.Counter("faultinject_corruptions_total"),
		errs:       r.Counter("faultinject_errors_total"),
	}
}

// Injector owns one seeded fault stream and the currently active
// Config (either static or scheduled by a Scenario). Safe for
// concurrent use; a nil *Injector injects nothing.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	cfg      Config
	scenario *Scenario
	start    time.Time
	m        metrics
}

// New returns an injector with the given seed and static config. reg
// may be nil (no fault counters).
func New(seed int64, cfg Config, reg *obs.Registry) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		cfg:   cfg,
		start: time.Now(),
		m:     newMetrics(reg),
	}
}

// SetConfig replaces the static config (and detaches any scenario).
// Tests use it to flip fault phases explicitly.
func (in *Injector) SetConfig(cfg Config) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.cfg = cfg
	in.scenario = nil
	in.mu.Unlock()
}

// Run attaches a scenario and restarts its clock: from now on the
// active config is the scenario phase covering the elapsed time.
func (in *Injector) Run(s *Scenario) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.scenario = s
	in.start = time.Now()
	in.mu.Unlock()
}

// active returns the config in effect right now.
func (in *Injector) active() Config {
	if in == nil {
		return Config{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.scenario != nil {
		return in.scenario.at(time.Since(in.start))
	}
	return in.cfg
}

// roll draws one Bernoulli decision from the seeded stream.
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < p
}

// sampleDelay draws the latency for one operation: fixed + capped
// Pareto tail.
func (in *Injector) sampleDelay(cfg Config) time.Duration {
	d := cfg.Latency
	if cfg.ParetoScale > 0 {
		alpha := cfg.ParetoAlpha
		if alpha <= 0 {
			alpha = 1.5
		}
		in.mu.Lock()
		u := in.rng.Float64()
		in.mu.Unlock()
		for u == 0 {
			u = 0.5 // avoid the infinite tail exactly at 0
		}
		extra := time.Duration(float64(cfg.ParetoScale) * (math.Pow(u, -1/alpha) - 1))
		if limit := 50 * cfg.ParetoScale; extra > limit {
			extra = limit
		}
		d += extra
	}
	return d
}

// sleep waits for d, honoring ctx; returns ctx.Err() on cancellation.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
