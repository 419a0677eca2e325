package robust

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/health"
	"repro/internal/metadata"
	"repro/internal/obs"
)

// Benchmarks for the real client stack over in-memory stores: these
// measure the library's own overheads (encode, fan-out, decode,
// locking) with storage latency at zero.

func benchClient(b *testing.B, servers int) *Client {
	b.Helper()
	meta := metadata.NewService()
	c, err := NewClient(meta, Options{BlockBytes: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < servers; i++ {
		if err := c.AttachStore(fmt.Sprintf("s%d", i), blockstore.NewMemStore()); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func BenchmarkClientWrite16MB(b *testing.B) {
	c := benchClient(b, 8)
	data := randData(16<<20, 1)
	ctx := context.Background()
	b.SetBytes(16 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("w%d", i)
		if _, err := c.Write(ctx, name, data, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientWriteSteady16MB measures the steady-state write path:
// writing the same segment shape repeatedly, so the coding graph is
// cached and the share-buffer pool is warm. This is the allocs/op
// number DESIGN.md §10 budgets (the plain Write benchmark pays a graph
// cache miss per fresh name on top of it).
func BenchmarkClientWriteSteady16MB(b *testing.B) {
	c := benchClient(b, 8)
	data := randData(16<<20, 1)
	ctx := context.Background()
	b.SetBytes(16 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(ctx, "steady", data, nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := c.Delete(ctx, "steady"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkClientWriteStream16MB measures the pipelined streaming
// write path at steady state: 16 MB arriving through an io.Reader in
// 2 MB chunks, each chunk encoded and spread while the next is still
// being ingested, with warm graph cache and share-buffer pool (the
// WriteSteady methodology). stream_first_commit_ms is the write-path
// first-byte latency — how long until the first block is durable —
// and the headline the streaming path exists for: it must sit well
// below the whole-segment faultfree_write_bare_ms, which cannot
// commit anything until the entire segment has been encoded.
func BenchmarkClientWriteStream16MB(b *testing.B) {
	meta := metadata.NewService()
	c, err := NewClient(meta, Options{BlockBytes: 256 << 10, ChunkBytes: 2 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c.AttachStore(fmt.Sprintf("s%d", i), blockstore.NewMemStore()); err != nil {
			b.Fatal(err)
		}
	}
	data := randData(16<<20, 7)
	ctx := context.Background()
	b.SetBytes(16 << 20)
	var first, total time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		ws, err := c.WriteFrom(ctx, "stream", bytes.NewReader(data), int64(len(data)), nil)
		if err != nil {
			b.Fatal(err)
		}
		total += time.Since(t0)
		first += ws.FirstCommit
		b.StopTimer()
		if err := c.Delete(ctx, "stream"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	perOpMs := func(d time.Duration) float64 {
		return float64(d.Microseconds()) / 1000 / float64(b.N)
	}
	b.ReportMetric(perOpMs(total), "stream_write_16mb_ms")
	b.ReportMetric(perOpMs(first), "stream_first_commit_ms")
}

// BenchmarkClientRead16MB measures a read over in-memory stores and
// what it moves for nothing: shares/op counts the shares the read asked
// its holders for (K=64 needs ~77), late/op the ones that arrived after
// their chunk decoded or the read was canceled.
func BenchmarkClientRead16MB(b *testing.B) {
	c := benchClient(b, 0)
	var requested atomic.Int64
	for i := 0; i < 8; i++ {
		if err := c.AttachStore(fmt.Sprintf("s%d", i), countingStore{blockstore.NewMemStore(), &requested}); err != nil {
			b.Fatal(err)
		}
	}
	data := randData(16<<20, 2)
	ctx := context.Background()
	if _, err := c.Write(ctx, "r", data, nil); err != nil {
		b.Fatal(err)
	}
	late := 0
	b.SetBytes(16 << 20)
	b.ResetTimer()
	requested.Store(0)
	for i := 0; i < b.N; i++ {
		_, rs, err := c.Read(ctx, "r")
		if err != nil {
			b.Fatal(err)
		}
		late += rs.Late
	}
	b.StopTimer()
	b.ReportMetric(float64(requested.Load())/float64(b.N), "shares/op")
	b.ReportMetric(float64(late)/float64(b.N), "late/op")
}

func BenchmarkClientUpdate256KB(b *testing.B) {
	c := benchClient(b, 8)
	data := randData(16<<20, 3)
	ctx := context.Background()
	if _, err := c.Write(ctx, "u", data, nil); err != nil {
		b.Fatal(err)
	}
	patch := randData(256<<10, 4)
	b.SetBytes(256 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Update(ctx, "u", 1<<20, patch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDaemonFaultFree measures the fault-free data path with the
// whole self-healing stack live (failure detector fed by every
// request, prober, scrub/repair daemon walking the namespace) against
// the bare client. The two variants' read/write latencies are the
// baseline evidence that the control plane rides along for free when
// nothing is broken; BENCH_4.json records both.
func BenchmarkDaemonFaultFree(b *testing.B) {
	for _, selfheal := range []bool{false, true} {
		name := "bare"
		if selfheal {
			name = "selfheal"
		}
		b.Run(name, func(b *testing.B) {
			meta := metadata.NewService()
			opts := Options{BlockBytes: 256 << 10}
			var tracker *health.Tracker
			var reg *obs.Registry
			if selfheal {
				reg = obs.NewRegistry()
				tracker = health.NewTracker(health.Options{Obs: reg})
				opts.Obs = reg
				opts.Health = tracker
			}
			c, err := NewClient(meta, opts)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				addr := fmt.Sprintf("s%d", i)
				if err := c.AttachStore(addr, blockstore.WithChecksums(blockstore.NewMemStore())); err != nil {
					b.Fatal(err)
				}
			}
			if selfheal {
				prober := health.NewProber(tracker, c.Servers, c.Probe,
					health.ProberOptions{Interval: 5 * time.Millisecond, Obs: reg})
				prober.Start()
				defer prober.Stop()
				d := NewDaemon(c, DaemonOptions{ScrubInterval: 10 * time.Millisecond, Obs: reg})
				d.Start()
				defer d.Stop()
			}
			ctx := context.Background()
			data := randData(4<<20, 6)
			if _, err := c.Write(ctx, "seg", data, nil); err != nil {
				b.Fatal(err)
			}
			var writeTime, readTime time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := c.Write(ctx, fmt.Sprintf("w%d", i), data, nil); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if _, _, err := c.Read(ctx, "seg"); err != nil {
					b.Fatal(err)
				}
				writeTime += t1.Sub(t0)
				readTime += time.Since(t1)
			}
			b.StopTimer()
			perOpMs := func(d time.Duration) float64 {
				return float64(d.Microseconds()) / 1000 / float64(b.N)
			}
			// Metric units double as baseline keys, so they carry the
			// variant name (see bench_baseline.sh).
			b.ReportMetric(perOpMs(writeTime), "faultfree_write_"+name+"_ms")
			b.ReportMetric(perOpMs(readTime), "faultfree_read_"+name+"_ms")
		})
	}
}

func BenchmarkClientHealth(b *testing.B) {
	c := benchClient(b, 8)
	ctx := context.Background()
	if _, err := c.Write(ctx, "h", randData(16<<20, 5), nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Health(ctx, "h"); err != nil {
			b.Fatal(err)
		}
	}
}
