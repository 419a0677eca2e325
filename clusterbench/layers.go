package main

import (
	"sort"
)

// perLayer derives the traced window's per-layer metrics from its
// records and spans, the coding-kernel figures, and the tracing
// overhead: the traced window's end-to-end figures minus the untraced
// window's.
func perLayer(ph phase, spans []span, lt ltcodeFigures, base, traced window) []metric {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	// robust: per-op stats the client returns.
	var (
		reads, writes, deletes, orphans         int
		hedges, hedgeWins, used, received, sumK int
		failedGets, failedPuts, committed, n    int
		maxServerFrac                           float64
		firstCommit                             []float64
	)
	for _, rec := range ph.recs {
		switch rec.kind {
		case opRead:
			reads++
			hedges += rec.rs.Hedges
			hedgeWins += rec.rs.HedgeWins
			used += rec.rs.UsedDecoder
			received += rec.rs.Received
			failedGets += rec.rs.FailedGets
			sumK += rec.rs.K
		case opWrite:
			writes++
			failedPuts += rec.ws.FailedPuts
			committed += rec.ws.Committed
			n += rec.ws.N
			firstCommit = append(firstCommit, ms(rec.ws.FirstCommit))
			most := 0
			for _, c := range rec.ws.PerServer {
				most = max(most, c)
			}
			maxServerFrac += ratio(float64(most), float64(rec.ws.Committed))
		case opDelete:
			deletes++
			orphans += rec.orphans
		}
	}
	ops := len(ph.recs)

	sc := checkSpans(spans)
	children := sc.children
	var readSelf, writeSelf []float64
	var opTime, metaTime float64
	for i := range spans {
		s := &spans[i]
		if s.Layer != "robust" {
			continue
		}
		kids := children[s.ID]
		self := ms(s.dur()) - covered(kids, nil)
		switch s.Op {
		case "read":
			readSelf = append(readSelf, self)
		case "write":
			writeSelf = append(writeSelf, self)
		}
		opTime += ms(s.dur())
		metaTime += covered(kids, func(c *span) bool { return c.Layer == "metadata" })
	}

	add("robust.read.self_ms", median(readSelf), "ms")
	add("robust.write.self_ms", median(writeSelf), "ms")
	add("robust.write.first_commit_ms", median(firstCommit), "ms")
	add("robust.read.hedges_per_op", ratio(float64(hedges), float64(reads)), "count")
	add("robust.read.hedge_win_frac", ratio(float64(hedgeWins), float64(hedges)), "ratio")
	add("robust.read.used_frac", ratio(float64(used), float64(received)), "ratio")
	add("robust.read.failed_gets_per_op", ratio(float64(failedGets), float64(reads)), "count")
	add("robust.write.failed_puts_per_op", ratio(float64(failedPuts), float64(writes)), "count")
	add("robust.write.overshoot", ratio(float64(committed), float64(n)), "ratio")
	add("robust.write.max_server_frac", ratio(maxServerFrac, float64(writes)), "ratio")
	// Latencies too unsteady to gate, of the untraced half: the tails,
	// the paper's std-dev, and deletes.
	add("robust.read.p90_ms", base.readP90, "ms")
	add("robust.read.p99_ms", base.readP99, "ms")
	add("robust.read.sd_ms", base.readSD, "ms")
	add("robust.write.p90_ms", base.writeP90, "ms")
	add("robust.write.p99_ms", base.writeP99, "ms")
	add("robust.delete.p50_ms", base.deleteP50, "ms")

	// metadata: every call, by kind.
	metaLat := map[string][]float64{}
	metaCalls := 0
	for i := range spans {
		if s := &spans[i]; s.Layer == "metadata" {
			metaLat[s.Op] = append(metaLat[s.Op], ms(s.dur()))
			metaCalls++
		}
	}
	for _, k := range []string{"lock_read", "lock_write", "unlock", "lookup", "create", "delete", "servers"} {
		add("metadata."+k+".p50_ms", median(metaLat[k]), "ms")
	}
	add("metadata.calls_per_op", ratio(float64(metaCalls), float64(ops)), "count")
	add("metadata.share_of_op", ratio(metaTime, opTime), "ratio")

	// transport: client calls, by kind.
	type callStats struct {
		lat            []float64
		entries, calls int
	}
	tr := map[string]*callStats{}
	var trBytes int64
	var trCalls, trCanceled, streamEntries, dataEntries int
	for i := range spans {
		s := &spans[i]
		if s.Layer != "transport" {
			continue
		}
		cs := tr[s.Op]
		if cs == nil {
			cs = &callStats{}
			tr[s.Op] = cs
		}
		cs.lat = append(cs.lat, ms(s.dur()))
		cs.entries += s.Entries
		cs.calls++
		trCalls++
		trBytes += s.Bytes
		if s.Canceled {
			trCanceled++
		}
		switch s.Op {
		case "getstream", "putstream":
			streamEntries += s.Entries
			dataEntries += s.Entries
		case "get", "put", "getbatch", "putbatch":
			dataEntries += s.Entries
		}
	}
	for _, k := range []string{"getstream", "putstream", "deletebatch"} {
		cs := tr[k]
		if cs == nil {
			cs = &callStats{}
		}
		add("transport."+k+".p50_ms", median(cs.lat), "ms")
		add("transport."+k+".p99_ms", quantile(cs.lat, 0.99), "ms")
		add("transport."+k+".entries_per_call", ratio(float64(cs.entries), float64(cs.calls)), "count")
		add("transport."+k+".calls_per_op", ratio(float64(cs.calls), float64(ops)), "count")
	}
	for _, k := range []string{"get", "put", "getbatch", "putbatch"} {
		calls := 0
		if cs := tr[k]; cs != nil {
			calls = cs.calls
		}
		add("transport."+k+".calls_per_op", ratio(float64(calls), float64(ops)), "count")
	}
	add("transport.stream_entry_frac", ratio(float64(streamEntries), float64(dataEntries)), "ratio")
	add("transport.bytes_per_op", ratio(float64(trBytes), float64(ops)), "B")
	add("transport.canceled_frac", ratio(float64(trCanceled), float64(trCalls)), "ratio")

	// blockstore: the servers' calls into their stores.
	var getUs, putUs []float64
	var serverGets int
	busy := map[int][]*span{}
	for i := range spans {
		s := &spans[i]
		if s.Layer != "blockstore" {
			continue
		}
		busy[s.Server] = append(busy[s.Server], s)
		switch s.Op {
		case "get":
			getUs = append(getUs, ms(s.dur())*1000)
			serverGets++
		case "getbatch":
			serverGets += s.Entries
		case "put":
			putUs = append(putUs, ms(s.dur())*1000)
		}
	}
	maxBusy := 0.0
	for _, ss := range busy {
		maxBusy = max(maxBusy, ratio(coveredIn(ss, ph.t0, ph.t1), float64(ph.t1-ph.t0)/1e6))
	}
	add("blockstore.get.p50_us", median(getUs), "us")
	add("blockstore.put.p50_us", median(putUs), "us")
	add("blockstore.gets_per_read_block", ratio(float64(serverGets), float64(sumK)), "ratio")
	add("blockstore.max_server_busy_frac", maxBusy, "ratio")
	add("blockstore.orphans_per_delete", ratio(float64(orphans), float64(deletes)), "count")

	// ltcode: the kernels on this workload's shape.
	add("ltcode.graph_build_ms", lt.graphBuildMs, "ms")
	add("ltcode.encode_MBps", lt.encodeMBps, "MB/s")
	add("ltcode.decode_MBps", lt.decodeMBps, "MB/s")
	add("ltcode.xor_ops_per_block", lt.xorPerBlock, "count")
	add("ltcode.reception_overhead", lt.reception, "ratio")

	// The load generator and the trace itself.
	var late []float64
	for _, d := range ph.late {
		late = append(late, ms(d))
	}
	add("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	add("trace.spans", float64(len(spans)), "count")
	add("trace.orphans", float64(sc.orphans), "count")
	add("trace.misnested", float64(sc.misnested), "count")
	add("trace.unattributed", float64(sc.unattributed), "count")
	for _, d := range []struct {
		name string
		b, t float64
		unit string
	}{
		{"read_p50_ms", base.readP50, traced.readP50, "ms"},
		{"write_p50_ms", base.writeP50, traced.writeP50, "ms"},
		{"goodput_MBps", base.goodput, traced.goodput, "MB/s"},
		{"io_overhead", base.ioOverhead, traced.ioOverhead, "ratio"},
		{"wire_bytes_per_user_byte", base.wirePerUser, traced.wirePerUser, "ratio"},
		{"cpu_s_per_GB", base.cpuPerGB, traced.cpuPerGB, "s/GB"},
	} {
		add("trace.overhead."+d.name, d.t-d.b, d.unit)
	}
	return out
}

// spanCheck is the span sanity check of a traced window: each metadata
// and transport span either joins the op it ran under and lies inside
// it, or names no segment (metadata.API.Servers, unattributed); any
// other is orphaned or misnested.
type spanCheck struct {
	children                         map[int64][]*span
	orphans, misnested, unattributed int
}

func checkSpans(spans []span) spanCheck {
	sc := spanCheck{children: make(map[int64][]*span)}
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		if s.Layer != "metadata" && s.Layer != "transport" {
			continue
		}
		switch {
		case s.Parent != 0:
			p, ok := byID[s.Parent]
			if !ok || s.Start < p.Start || s.End > p.End {
				sc.misnested++
				continue
			}
			sc.children[s.Parent] = append(sc.children[s.Parent], s)
		case s.Seg == "":
			sc.unattributed++
		default:
			sc.orphans++
		}
	}
	return sc
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// covered is the length, in ms, of the union of the spans' intervals
// that keep selects (all when keep is nil).
func covered(ss []*span, keep func(*span) bool) float64 {
	var iv [][2]int64
	for _, s := range ss {
		if keep == nil || keep(s) {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	return unionMs(iv)
}

// coveredIn is covered clipped to [t0, t1].
func coveredIn(ss []*span, t0, t1 int64) float64 {
	var iv [][2]int64
	for _, s := range ss {
		lo, hi := max(s.Start, t0), min(s.End, t1)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	return unionMs(iv)
}

func unionMs(iv [][2]int64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	var start int64
	for _, x := range iv {
		switch {
		case first:
			start, end, first = x[0], x[1], false
		case x[0] > end:
			total += end - start
			start, end = x[0], x[1]
		case x[1] > end:
			end = x[1]
		}
	}
	if !first {
		total += end - start
	}
	return float64(total) / 1e6
}
