// Command robustore is the RobuSTore client CLI: put, get, stat,
// list, and remove erasure-coded segments across a set of block
// servers, with metadata kept in a local JSON snapshot (the paper's
// metadata server, persisted between invocations).
//
// Usage:
//
//	robustore -servers localhost:7070,localhost:7071 put name file
//	robustore -servers ...                         get name [outfile]
//	robustore -servers ...                         stat name
//	robustore                                      ls
//	robustore -servers ...                         rm name
//	robustore -servers ...                         scrub [name]
//	robustore -servers ...                         repair --all
//	robustore -servers ...                         daemon
//	robustore -meta-server ...                     drain addr
//	robustore -meta-server ...                     undrain addr
//	robustore -meta-server ...                     remove-server addr
//	robustore -servers ...                         rebalance
//	robustore                                      servers
//
// The daemon command runs the self-healing control plane in the
// foreground until interrupted: a prober feeds the failure detector
// (Down servers leave write placement and read fan-out, rejoining on
// a successful probe) while the scrub daemon walks all segments,
// deletes scrub-condemned shares, and drains the repair queue under
// the -repair-rate bandwidth budget; with -rebalance it also migrates
// shares off draining/over-full servers each pass, under the same
// budget. -metrics-listen exposes the health_*, scrub_*,
// repair_queue_*, placement_*, and rebalance_* series over HTTP.
//
// Server lifecycle: drain marks a server Draining (excluded from new
// placements, still readable; the rebalancer migrates its shares
// off), undrain returns it to Active (a rejoin — the rebalancer
// converges load back onto it), and remove-server tombstones it.
// Against a replicated -meta-server group the state change is a
// consensus-log command, so it survives leader failover.
//
// Flags -meta (snapshot path), -meta-server (one address or a
// comma-separated replicated group; the client fails over between
// endpoints and follows leader redirects), -redundancy, -block,
// -max-zone-share tune behaviour;
// -scrub-interval, -probe-interval, -repair-rate, -rebalance,
// -metrics-listen tune the daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/health"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/transport"
)

func main() {
	var (
		servers       = flag.String("servers", "", "comma-separated block server addresses")
		metaPath      = flag.String("meta", "robustore-meta.json", "local metadata snapshot path")
		metaServer    = flag.String("meta-server", "", "networked metadata server address(es), comma-separated for a replicated group (overrides -meta)")
		redundancy    = flag.Float64("redundancy", 3, "data redundancy D (stored = (1+D) x data)")
		blockKB       = flag.Int64("block", 1024, "coded block size in KB")
		chunkMB       = flag.Int64("chunk-size", 0, "put: streaming chunk size in MB (0 = whole-segment single chunk)")
		timeout       = flag.Duration("timeout", 5*time.Minute, "operation timeout")
		scrubInterval = flag.Duration("scrub-interval", 30*time.Second, "daemon: pause between scrub passes")
		probeInterval = flag.Duration("probe-interval", time.Second, "daemon: pause between liveness probe rounds")
		repairRate    = flag.Int64("repair-rate", 0, "daemon: repair+rebalance bandwidth budget in bytes/sec (0 = unlimited)")
		rebalance     = flag.Bool("rebalance", false, "daemon: migrate shares off draining/over-full servers each pass")
		maxZoneShare  = flag.Float64("max-zone-share", 0, "cap on the fraction of a segment's shares per zone (0 = uncapped)")
		metricsListen = flag.String("metrics-listen", "", "daemon: serve /metrics on this HTTP address (\":port\" binds loopback; empty disables)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}

	// Daemon mode wires the full self-healing loop: a registry for the
	// health_*/scrub_* series and a failure detector the robust client
	// both feeds (one outcome per write run or read window) and
	// consults (placement exclusion). The prober feeds it too; the
	// transport and metadata clients do not.
	var reg *obs.Registry
	var tracker *health.Tracker
	if args[0] == "daemon" {
		reg = obs.NewRegistry()
		tracker = health.NewTracker(health.Options{Obs: reg})
	}

	var meta metadata.API
	var localMeta *metadata.Service
	if *metaServer != "" {
		// -meta-server accepts one address or a comma-separated
		// replicated group; the client fails over between endpoints and
		// follows leader redirects.
		var endpoints []string
		for _, a := range strings.Split(*metaServer, ",") {
			if a = strings.TrimSpace(a); a != "" {
				endpoints = append(endpoints, a)
			}
		}
		remote, err := metadata.DialRemoteMulti(endpoints, metadata.RemoteOptions{Obs: reg})
		if err != nil {
			fatal(err)
		}
		defer remote.Close()
		meta = remote
	} else {
		localMeta = metadata.NewService()
		if err := localMeta.LoadFile(*metaPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			fatal(err)
		}
		meta = localMeta
	}
	saveMeta := func() {
		if localMeta == nil {
			return // the networked metadata server owns persistence
		}
		if err := localMeta.SaveFile(*metaPath); err != nil {
			fatal(err)
		}
	}
	copts := robust.Options{
		Redundancy:   *redundancy,
		BlockBytes:   *blockKB << 10,
		ChunkBytes:   *chunkMB << 20,
		MaxZoneShare: *maxZoneShare,
		Obs:          reg,
	}
	if tracker != nil {
		copts.Health = tracker
	}
	client, err := robust.NewClient(meta, copts)
	if err != nil {
		fatal(err)
	}
	var addrs []string
	if *servers != "" {
		for _, a := range strings.Split(*servers, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			// Idempotent requests retry transport failures on their
			// own (the transport's fixed retry budget).
			store, err := transport.Dial(a, transport.ClientOptions{Obs: reg})
			if err != nil {
				fatal(fmt.Errorf("connecting to %s: %w", a, err))
			}
			defer store.Close()
			if err := client.AttachStore(a, store); err != nil {
				fatal(err)
			}
			addrs = append(addrs, a)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch args[0] {
	case "put":
		if len(args) != 3 {
			usage()
		}
		// Stream the source through the chunked write path: "-" reads
		// stdin to EOF; a regular file declares its size so a
		// truncated source fails the write instead of storing a short
		// segment. With -chunk-size each chunk encodes and spreads
		// while the next is still being read.
		var src io.Reader
		size := int64(-1)
		if args[2] == "-" {
			src = os.Stdin
		} else {
			f, err := os.Open(args[2])
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
				size = fi.Size()
			}
			src = f
		}
		cr := &countReader{r: src}
		stats, err := client.WriteFrom(ctx, args[1], cr, size, nil)
		if err != nil {
			fatal(err)
		}
		saveMeta()
		fmt.Printf("stored %s: %d bytes, K=%d N=%d, %d blocks committed in %v (first block %v)\n",
			args[1], cr.n, stats.K, stats.N, stats.Committed,
			stats.Duration.Round(time.Millisecond), stats.FirstCommit.Round(time.Millisecond))
		printPerServer(stats.PerServer)
	case "get":
		if len(args) < 2 || len(args) > 3 {
			usage()
		}
		data, stats, err := client.Read(ctx, args[1])
		if err != nil {
			fatal(err)
		}
		out := os.Stdout
		if len(args) == 3 {
			f, err := os.Create(args[2])
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if _, err := out.Write(data); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "read %s: %d bytes, %d blocks (overhead %.2f) in %v\n",
			args[1], len(data), stats.Received, stats.Reception, stats.Duration.Round(time.Millisecond))
	case "stat":
		if len(args) != 2 {
			usage()
		}
		info, err := client.Stat(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d bytes, K=%d N=%d, block %d B, version %d\n",
			info.Name, info.Size, info.K, info.N, info.BlockBytes, info.Version)
		printPerServer(info.Servers)
	case "ls":
		for _, name := range meta.ListSegments() {
			fmt.Println(name)
		}
	case "rm":
		if len(args) != 2 {
			usage()
		}
		if err := client.Delete(ctx, args[1]); err != nil {
			fatal(err)
		}
		saveMeta()
		fmt.Printf("removed %s\n", args[1])
	case "health":
		if len(args) != 2 {
			usage()
		}
		rep, err := client.Health(ctx, args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d/%d blocks reachable, %d missing, decodable=%v\n",
			rep.Name, rep.Reachable, rep.Reachable+rep.Missing, rep.Missing, rep.Decodable)
		for _, addr := range rep.DeadAddrs {
			fmt.Printf("  unreachable holder: %s\n", addr)
		}
	case "repair":
		if len(args) != 2 {
			usage()
		}
		if args[1] == "--all" || args[1] == "-all" {
			d := robust.NewDaemon(client, robust.DaemonOptions{
				RepairRateBytesPerSec: *repairRate,
			})
			stats, err := d.RunOnce(ctx)
			saveMeta() // partial progress is still progress
			if err != nil {
				fatal(err)
			}
			fmt.Printf("scanned %d segments: %d queued, %d repaired, %d corrupt and %d missing shares found\n",
				stats.Scanned, stats.Enqueued, stats.Repaired, stats.Corrupt, stats.Missing)
			break
		}
		st, err := client.Repair(ctx, args[1])
		if err != nil {
			fatal(err)
		}
		saveMeta()
		fmt.Printf("repaired %s: %d blocks regenerated, %d placement entries pruned in %v\n",
			args[1], st.Regenerated, st.Pruned, st.Duration.Round(time.Millisecond))
	case "scrub":
		if len(args) > 2 {
			usage()
		}
		names := meta.ListSegments()
		if len(args) == 2 {
			names = []string{args[1]}
		}
		for _, name := range names {
			audit, err := client.Audit(ctx, name)
			if err != nil {
				fatal(err)
			}
			status := "ok"
			if audit.NeedsRepair() {
				status = "NEEDS REPAIR"
			}
			fmt.Printf("%s: %d/%d shares live, %d corrupt, %d missing (deficit %d) %s\n",
				name, audit.Live, audit.N, audit.Corrupt, audit.Missing, audit.Deficit(), status)
		}
	case "drain", "undrain", "remove-server":
		if len(args) != 2 {
			usage()
		}
		state := map[string]metadata.ServerState{
			"drain":         metadata.ServerDraining,
			"undrain":       metadata.ServerActive,
			"remove-server": metadata.ServerRemoved,
		}[args[0]]
		if err := meta.SetServerState(args[1], state); err != nil {
			fatal(err)
		}
		saveMeta()
		st, err := client.DrainProgress(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s is now %s; %d shares still placed here\n", args[1], st.State, st.Shares)
		if st.Shares > 0 && state != metadata.ServerActive {
			fmt.Println("run `robustore rebalance` (or the daemon with -rebalance) to migrate them off")
		}
	case "rebalance":
		if len(args) != 1 {
			usage()
		}
		d := robust.NewDaemon(client, robust.DaemonOptions{
			RepairRateBytesPerSec: *repairRate,
			Rebalance:             true,
		})
		stats, err := d.RebalanceOnce(ctx)
		saveMeta() // partial progress is still progress
		if err != nil {
			fatal(err)
		}
		fmt.Printf("planned %d moves over %d segments: %d moved (%d bytes), %d skipped, %d failed, throttled %v\n",
			stats.Planned, stats.Scanned, stats.Moved, stats.Bytes, stats.Skipped, stats.Failed,
			stats.Throttled.Round(time.Millisecond))
	case "servers":
		if len(args) != 1 {
			usage()
		}
		for _, srv := range meta.Servers() {
			fmt.Printf("%-24s zone=%-12q state=%-9s %.0f MBps\n",
				srv.Addr, srv.Zone, srv.State.Normalize(), srv.ExpectedMBps)
		}
	case "daemon":
		if len(args) != 1 {
			usage()
		}
		runDaemon(client, tracker, reg, saveMeta, daemonConfig{
			scrubInterval: *scrubInterval,
			probeInterval: *probeInterval,
			repairRate:    *repairRate,
			rebalance:     *rebalance,
			metricsListen: *metricsListen,
		})
	default:
		usage()
	}
	_ = addrs
}

// daemonConfig carries the daemon command's flag values.
type daemonConfig struct {
	scrubInterval time.Duration
	probeInterval time.Duration
	repairRate    int64
	rebalance     bool
	metricsListen string
}

// runDaemon runs the self-healing control plane in the foreground:
// liveness prober feeding the failure detector, scrub/repair daemon
// draining the queue, optional /metrics endpoint. Returns on
// SIGINT/SIGTERM after stopping both loops and persisting metadata.
func runDaemon(client *robust.Client, tracker *health.Tracker, reg *obs.Registry, saveMeta func(), cfg daemonConfig) {
	if cfg.metricsListen != "" {
		addr := cfg.metricsListen
		if strings.HasPrefix(addr, ":") {
			addr = "127.0.0.1" + addr
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			fatal(fmt.Errorf("metrics listener: %w", err))
		}
		defer ln.Close()
		go http.Serve(ln, obs.Handler(reg))
		fmt.Fprintf(os.Stderr, "robustore: serving metrics on http://%s/metrics\n", ln.Addr())
	}

	prober := health.NewProber(tracker, client.Servers, client.Probe,
		health.ProberOptions{Interval: cfg.probeInterval, Obs: reg})
	prober.Start()
	daemon := robust.NewDaemon(client, robust.DaemonOptions{
		ScrubInterval:         cfg.scrubInterval,
		RepairRateBytesPerSec: cfg.repairRate,
		Rebalance:             cfg.rebalance,
		Obs:                   reg,
	})
	daemon.Start()
	fmt.Fprintf(os.Stderr, "robustore: daemon running (scrub every %v, probe every %v); ^C to stop\n",
		cfg.scrubInterval, cfg.probeInterval)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)

	fmt.Fprintln(os.Stderr, "robustore: shutting down")
	daemon.Stop()
	prober.Stop()
	saveMeta()
}

func printPerServer(per map[string]int) {
	keys := make([]string, 0, len(per))
	for k := range per {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-24s %d blocks\n", k, per[k])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: robustore [flags] <command>
commands:
  put <name> <file>     store a file ("-" = stdin) as an erasure-coded segment,
                        streamed chunk-by-chunk with -chunk-size
  get <name> [outfile]  reconstruct a segment
  stat <name>           show segment metadata
  ls                    list segments
  rm <name>             delete a segment
  health <name>         audit block reachability and decodability
  repair <name>         regenerate unreachable blocks on healthy servers
  repair --all          one scrub+repair pass over every segment
  scrub [name]          integrity audit (live/corrupt/missing shares)
  daemon                run the self-healing prober + scrub/repair loop
  drain <addr>          mark a server Draining (no new placements; still readable)
  undrain <addr>        return a server to Active (rejoin)
  remove-server <addr>  tombstone a server (never placed on again)
  rebalance             one pass migrating shares off draining/over-full servers
  servers               list registered servers with zone and lifecycle state
flags: -servers -meta -meta-server -redundancy -block -chunk-size -max-zone-share -timeout
       -scrub-interval -probe-interval -repair-rate -rebalance -metrics-listen (see -h)`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "robustore: %v\n", err)
	os.Exit(1)
}

// countReader counts bytes read, so put can report the stored size
// without buffering the stream.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
