package server

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/wire"
	"repro/jiffy/client"
)

// TestMetricsEndToEnd drives real client traffic through the server and
// asserts the instrument panel moved: per-op request counters, latency
// histogram counts, response status classification, connection and
// session lifecycle gauges, byte counters, flush coalescing histograms —
// and that the rendered exposition carries the same numbers, which is
// what a scraper sees. The subtest is named after the serving core.
func TestMetricsEndToEnd(t *testing.T) {
	t.Run(Mode{}.String(), testMetricsEndToEnd)
}

func testMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	_, srv, addr := startServer(t, 2, Options{Registry: reg})
	c := dial(t, addr, client.Options{Conns: 1})

	const puts = 20
	for i := uint64(0); i < puts; i++ {
		if err := c.Put(i, i*i); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		if _, _, err := c.Get(i); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	if _, _, err := c.Get(1 << 40); err != nil { // a miss: not_found status
		t.Fatalf("get miss: %v", err)
	}
	if _, err := c.Remove(3); err != nil {
		t.Fatalf("remove: %v", err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	sc := snap.ScanAll()
	for sc.Next() {
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	sc.Close()

	m := srv.metrics
	if got := m.requests[wire.OpPut].Value(); got != puts {
		t.Errorf("put requests = %d, want %d", got, puts)
	}
	if got := m.latency[wire.OpPut].Count(); got != puts {
		t.Errorf("put latency observations = %d, want %d", got, puts)
	}
	if got := m.requests[wire.OpGet].Value(); got != 11 {
		t.Errorf("get requests = %d, want 11", got)
	}
	if m.requests[wire.OpSnap].Value() != 1 || m.requests[wire.OpScan].Value() == 0 {
		t.Errorf("snap/scan requests = %d/%d, want 1/>0",
			m.requests[wire.OpSnap].Value(), m.requests[wire.OpScan].Value())
	}
	if got := m.responses[wire.StatusNotFound].Value(); got == 0 {
		t.Error("no not_found responses counted after a get miss")
	}
	if got := m.responses[wire.StatusOK].Value(); got < puts {
		t.Errorf("ok responses = %d, want >= %d", got, puts)
	}
	if got := m.inflight.Value(); got != 0 {
		t.Errorf("inflight = %d after traffic quiesced, want 0", got)
	}
	if m.connsTotal.Value() == 0 || m.conns.Value() == 0 {
		t.Errorf("connection gauges = total %d, open %d; want both > 0",
			m.connsTotal.Value(), m.conns.Value())
	}
	if m.bytesIn.Value() == 0 || m.bytesOut.Value() == 0 {
		t.Errorf("byte counters = in %d, out %d; want both > 0",
			m.bytesIn.Value(), m.bytesOut.Value())
	}
	// Every flush write is observed once in each flush histogram (just
	// after the write, so the last one may land after its response).
	testutil.Eventually(t, func() bool {
		n := m.flushBytes.Count()
		return n > 0 && m.flushFrames.Count() == n
	}, "flush histograms never agreed on a nonzero flush count")
	if m.sessionsOpened.Value() != 1 || m.sessionsOpen.Value() != 1 {
		t.Errorf("sessions opened/open = %d/%d, want 1/1",
			m.sessionsOpened.Value(), m.sessionsOpen.Value())
	}

	// The exposition must carry the same series a scraper alerts on.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	exp := sb.String()
	for _, want := range []string{
		`jiffyd_requests_total{op="put"} 20`,
		`jiffyd_requests_total{op="get"} 11`,
		`jiffyd_request_seconds_count{op="put"} 20`,
		`jiffyd_sessions_opened_total 1`,
		"jiffyd_flush_bytes_count ",
		"jiffyd_flush_frames_count ",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Closing the client must drop the open-connections gauge and
	// release its session.
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for m.conns.Value() != 0 || m.sessionsOpen.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after close: conns=%d sessions=%d, want 0/0",
				m.conns.Value(), m.sessionsOpen.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMetricsSessionReapCounted pins the reaper's counter: an abandoned
// session must show up in jiffyd_sessions_reaped_total and leave
// jiffyd_sessions_open at zero.
func TestMetricsSessionReapCounted(t *testing.T) {
	_, srv, addr := startServer(t, 1, Options{SnapTTL: 50 * time.Millisecond})
	c := dial(t, addr, client.Options{Conns: 1})
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	m := srv.metrics
	deadline := time.Now().Add(5 * time.Second)
	for m.sessionsReaped.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never counted as reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := m.sessionsOpen.Value(); got != 0 {
		t.Fatalf("sessions open = %d after reap, want 0", got)
	}
}

// TestMetricsDefaultRegistry asserts the server instruments even with no
// Registry configured — the hot path must be identical either way.
func TestMetricsDefaultRegistry(t *testing.T) {
	_, srv, addr := startServer(t, 1, Options{})
	c := dial(t, addr, client.Options{Conns: 1})
	if err := c.Put(1, 2); err != nil {
		t.Fatalf("put: %v", err)
	}
	if got := srv.metrics.requests[wire.OpPut].Value(); got != 1 {
		t.Fatalf("private-registry put count = %d, want 1", got)
	}
}
