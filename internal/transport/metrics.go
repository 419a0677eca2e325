package transport

import "repro/internal/obs"

// Metric names (DESIGN.md §7), registered by newClientMetrics and
// newServerMetrics. Each line is one name, or a family when its one
// {a,b,...} group expands to every alternative:
//
//	transport_client_{dial_errors,errors}_total     failed dials; failed exchanges
//	transport_client_{retries,retry_successes,retry_giveups}_total
//	transport_client_bytes_{sent,recv}_total
//	transport_client_roundtrip_seconds              exchange latency
//	transport_client_mux_{dials,conn_failures,streams,stream_timeouts,resets}_total
//	transport_client_mux_{late_frames,flow_stalls,frames_sent,frames_recv}_total
//	transport_client_mux_inflight                   open streams
//	transport_server_{put,get,delete,list,ping,scrub,delete_batch,put_stream}_total
//	transport_server_{put,get,delete,list,ping,scrub,delete_batch,put_stream}_seconds
//	transport_server_{errors,busy,bad_prefaces,batch_blocks}_total
//	transport_server_mux_{streams,resets,flow_stalls}_total
//	transport_server_{conns,mux_inflight}           open connections; open streams
//
// A mux stream timeout or reset counts only when it did not tear the
// connection down; late frames arrived for an abandoned stream; a flow
// stall is a sender blocked waiting for WINDOW credit.

// clientMetrics are the client's metric handles; all nil (no-op)
// when observability is disabled.
type clientMetrics struct {
	dialErrors   *obs.Counter
	errors       *obs.Counter
	retries      *obs.Counter
	retriesWon   *obs.Counter
	retryGiveups *obs.Counter
	bytesSent    *obs.Counter
	bytesRecv    *obs.Counter
	roundTrip    *obs.Histogram

	muxDials          *obs.Counter
	muxConnFailures   *obs.Counter
	muxStreams        *obs.Counter
	muxStreamTimeouts *obs.Counter
	muxResets         *obs.Counter
	muxLateFrames     *obs.Counter
	muxFlowStalls     *obs.Counter
	muxFramesSent     *obs.Counter
	muxFramesRecv     *obs.Counter
	muxInflight       *obs.Gauge
}

func newClientMetrics(r *obs.Registry) clientMetrics {
	return clientMetrics{
		dialErrors:        r.Counter("transport_client_dial_errors_total"),
		errors:            r.Counter("transport_client_errors_total"),
		retries:           r.Counter("transport_client_retries_total"),
		retriesWon:        r.Counter("transport_client_retry_successes_total"),
		retryGiveups:      r.Counter("transport_client_retry_giveups_total"),
		bytesSent:         r.Counter("transport_client_bytes_sent_total"),
		bytesRecv:         r.Counter("transport_client_bytes_recv_total"),
		roundTrip:         r.Histogram("transport_client_roundtrip_seconds"),
		muxDials:          r.Counter("transport_client_mux_dials_total"),
		muxConnFailures:   r.Counter("transport_client_mux_conn_failures_total"),
		muxStreams:        r.Counter("transport_client_mux_streams_total"),
		muxStreamTimeouts: r.Counter("transport_client_mux_stream_timeouts_total"),
		muxResets:         r.Counter("transport_client_mux_resets_total"),
		muxLateFrames:     r.Counter("transport_client_mux_late_frames_total"),
		muxFlowStalls:     r.Counter("transport_client_mux_flow_stalls_total"),
		muxFramesSent:     r.Counter("transport_client_mux_frames_sent_total"),
		muxFramesRecv:     r.Counter("transport_client_mux_frames_recv_total"),
		muxInflight:       r.Gauge("transport_client_mux_inflight"),
	}
}

// serverMetrics are the server-side metric handles; all nil (no-op)
// when observability is disabled.
type serverMetrics struct {
	conns       *obs.Gauge
	errors      *obs.Counter
	busy        *obs.Counter
	badPrefaces *obs.Counter
	batchBlocks *obs.Counter
	ops         map[byte]*obs.Counter
	opSeconds   map[byte]*obs.Histogram

	muxStreams  *obs.Counter
	muxResets   *obs.Counter
	muxStalls   *obs.Counter
	muxInflight *obs.Gauge
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	m := serverMetrics{
		conns:       r.Gauge("transport_server_conns"),
		errors:      r.Counter("transport_server_errors_total"),
		busy:        r.Counter("transport_server_busy_total"),
		badPrefaces: r.Counter("transport_server_bad_prefaces_total"),
		batchBlocks: r.Counter("transport_server_batch_blocks_total"),
		muxStreams:  r.Counter("transport_server_mux_streams_total"),
		muxResets:   r.Counter("transport_server_mux_resets_total"),
		muxStalls:   r.Counter("transport_server_mux_flow_stalls_total"),
		muxInflight: r.Gauge("transport_server_mux_inflight"),
	}
	if r != nil {
		// Metric names are spelled out as literals (not assembled at
		// runtime) so the obshygiene analyzer can vet the namespace.
		m.ops = make(map[byte]*obs.Counter, 8)
		m.opSeconds = make(map[byte]*obs.Histogram, 8)
		reg := func(op byte, total *obs.Counter, seconds *obs.Histogram) {
			m.ops[op] = total
			m.opSeconds[op] = seconds
		}
		reg(opPut, r.Counter("transport_server_put_total"), r.Histogram("transport_server_put_seconds"))
		reg(opGet, r.Counter("transport_server_get_total"), r.Histogram("transport_server_get_seconds"))
		reg(opDelete, r.Counter("transport_server_delete_total"), r.Histogram("transport_server_delete_seconds"))
		reg(opList, r.Counter("transport_server_list_total"), r.Histogram("transport_server_list_seconds"))
		reg(opPing, r.Counter("transport_server_ping_total"), r.Histogram("transport_server_ping_seconds"))
		reg(opScrub, r.Counter("transport_server_scrub_total"), r.Histogram("transport_server_scrub_seconds"))
		reg(opDeleteBatch, r.Counter("transport_server_delete_batch_total"), r.Histogram("transport_server_delete_batch_seconds"))
		reg(opPutStream, r.Counter("transport_server_put_stream_total"), r.Histogram("transport_server_put_stream_seconds"))
	}
	return m
}
