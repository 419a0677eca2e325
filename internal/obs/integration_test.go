package obs_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/transport"
)

// End-to-end: a write and a read through the real client/server stack
// must surface in the debug endpoint — nonzero robust_* and
// transport_* counters, populated latency histograms, and completed
// traces. This is the same wiring robustored -debug-listen uses.
func TestMetricsEndpointReflectsAccess(t *testing.T) {
	reg := obs.NewRegistry()

	srv := transport.NewServer(blockstore.NewMemStore(), transport.ServerOptions{Obs: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	store, err := transport.Dial(ln.Addr().String(), transport.ClientOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	client, err := robust.NewClient(metadata.NewService(), robust.Options{
		BlockBytes: 64 << 10,
		Obs:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.AttachStore("srv", store); err != nil {
		t.Fatal(err)
	}

	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(data)
	ctx := context.Background()
	if _, err := client.Write(ctx, "obj", data, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := client.Read(ctx, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back wrong data")
	}

	web := httptest.NewServer(obs.Handler(reg))
	defer web.Close()

	metrics := httpGet(t, web.URL+"/metrics")
	for _, re := range []string{
		`(?m)^robust_reads_total 1$`,
		`(?m)^robust_writes_total 1$`,
		`(?m)^robust_read_bytes_total 1048576$`,
		`(?m)^robust_read_latency_seconds_count 1$`,
		`(?m)^robust_write_latency_seconds_count 1$`,
		`(?m)^robust_read_blocks_total [1-9]\d*$`,
		`(?m)^robust_write_blocks_total [1-9]\d*$`,
		// Reads ride mux streams: per-stream GETs feeding the decoder
		// as frames arrive.
		`(?m)^transport_server_get_total [1-9]\d*$`,
		`(?m)^transport_client_mux_dials_total [1-9]\d*$`,
		`(?m)^transport_client_mux_streams_total [1-9]\d*$`,
		`(?m)^transport_server_mux_streams_total [1-9]\d*$`,
		// Writes go over PUTSTREAM, which counts every entry it stores
		// as a batch block.
		`(?m)^transport_server_put_stream_total [1-9]\d*$`,
		`(?m)^transport_server_batch_blocks_total [1-9]\d*$`,
		`(?m)^transport_client_roundtrip_seconds_count [1-9]\d*$`,
	} {
		if !regexp.MustCompile(re).MatchString(metrics) {
			t.Errorf("/metrics missing %s\n%s", re, metrics)
		}
	}

	traces := httpGet(t, web.URL+"/debug/trace")
	if !strings.Contains(traces, "read obj") || !strings.Contains(traces, "write obj") {
		t.Errorf("/debug/trace missing read/write traces:\n%s", traces)
	}
	for _, stage := range []string{"first-byte", "decode-complete", "first-commit", "commit-target"} {
		if !strings.Contains(traces, stage) {
			t.Errorf("/debug/trace missing stage %q:\n%s", stage, traces)
		}
	}

	jsonDump := httpGet(t, web.URL+"/metrics.json")
	if !strings.Contains(jsonDump, `"robust_reads_total": 1`) {
		t.Errorf("/metrics.json missing counters:\n%s", jsonDump)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
