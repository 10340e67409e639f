package server

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/wire"
	"repro/jiffy/client"
)

// These tests put misbehaving clients in front of the server — dribbling
// writers, mid-frame resets, readers that stop reading — and assert that
// one bad connection never blocks the server's other connections, that
// output backpressure engages and releases, and that every teardown is
// clean (no goroutine, fd, or session leak; LeakCheck enforces the
// first two, TestIdleScanCursorDoesNotBlockReclamation-style assertions
// the third).

// TestFlakyNeighborsStayLive runs a healthy client beside a crowd of
// flaky ones — short writes fragmenting frames across many syscalls,
// periodic stalls, and mid-frame resets. The healthy client's pings must
// keep round-tripping throughout.
func TestFlakyNeighborsStayLive(t *testing.T) {
	testutil.LeakCheck(t)
	_, _, addr := startServer(t, 4, Options{})

	healthy := dial(t, addr, client.Options{Conns: 1})
	if err := healthy.Ping(); err != nil {
		t.Fatalf("healthy ping: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := int64(i)
			for {
				select {
				case <-stop:
					return
				default:
				}
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					continue
				}
				fc := testutil.NewFlaky(raw, testutil.Faults{
					ShortWrites:     3,
					StallEvery:      7,
					Stall:           2 * time.Millisecond,
					ResetAfterBytes: 200 + 100*i,
					Seed:            seed,
				})
				seed += 1000
				// Dribble pings and puts until the reset fault kills us.
				frame := wire.AppendFrame(nil, 1, wire.OpPing, nil)
				frame = wire.AppendFrame(frame, 2, wire.OpPut, func() []byte {
					b := wire.AppendBytes(nil, []byte{1, 0, 0, 0, 0, 0, 0, 0})
					return wire.AppendBytes(b, []byte{2, 0, 0, 0, 0, 0, 0, 0})
				}())
				for {
					if _, err := fc.Write(frame); err != nil {
						break
					}
				}
				fc.Close()
			}
		}()
	}

	// The healthy connection must answer promptly the whole time the
	// flaky crowd churns.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		start := time.Now()
		if err := healthy.Ping(); err != nil {
			t.Fatalf("healthy ping during fault storm: %v", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("healthy ping took %v behind flaky neighbors", d)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSlowReaderDoesNotBlockLoop serves a reader that stops consuming
// responses mid-scan (forcing the server's output backlog toward the
// high-water mark) beside a healthy client. The healthy client must stay
// live while the slow one is paused, and the slow one must finish once it
// resumes reading.
func TestSlowReaderDoesNotBlockLoop(t *testing.T) {
	testutil.LeakCheck(t)
	s, _, addr := startServer(t, 4, Options{})
	for i := uint64(0); i < 5000; i++ {
		s.Put(i, i)
	}

	healthy := dial(t, addr, client.Options{Conns: 1})

	// The slow reader: request a pile of scan pages raw, read nothing yet.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer slow.Close()
	var req []byte
	for id := uint64(1); id <= 64; id++ {
		body := []byte{0, 0, 0, 0, 0, 0, 0, 0}      // snapID 0
		body = append(body, 0, 0, 0, 0, 0, 0, 0, 0) // floor 0
		body = append(body, 0xff, 0xff, 0, 0)       // maxEntries (clamped server-side)
		body = append(body, wire.ScanFromStart)
		req = wire.AppendFrame(req, id, wire.OpScan, body)
	}
	if _, err := slow.Write(req); err != nil {
		t.Fatalf("write scan burst: %v", err)
	}

	// While the backlog sits unread, the healthy neighbor keeps working.
	for i := 0; i < 50; i++ {
		if err := healthy.Ping(); err != nil {
			t.Fatalf("ping %d behind slow reader: %v", i, err)
		}
		if _, ok, err := healthy.Get(7); !ok || err != nil {
			t.Fatalf("get behind slow reader: %v/%v", ok, err)
		}
	}

	// Resume reading: all 64 pages arrive intact.
	slow.SetReadDeadline(time.Now().Add(10 * time.Second))
	var got atomic.Int64
	var buf []byte
	for got.Load() < 64 {
		_, status, _, nbuf, err := wire.ReadFrame(slow, buf)
		buf = nbuf
		if err != nil {
			t.Fatalf("slow reader resume after %d pages: %v", got.Load(), err)
		}
		if status != wire.StatusOK {
			t.Fatalf("scan page status %d", status)
		}
		got.Add(1)
	}
}

// scanBurst builds n pipelined sessionless full-scan requests. Each
// returns a full page (~80 KiB against the 5000-key fixture), so against
// a client that reads nothing a large enough n is guaranteed to push the
// connection past the output high-water mark and pause it.
func scanBurst(n int) []byte {
	var req []byte
	for id := uint64(1); id <= uint64(n); id++ {
		body := []byte{0, 0, 0, 0, 0, 0, 0, 0}      // snapID 0 (sessionless)
		body = append(body, 0, 0, 0, 0, 0, 0, 0, 0) // floor 0
		body = append(body, 0xff, 0xff, 0, 0)       // maxEntries (clamped server-side)
		body = append(body, wire.ScanFromStart)
		req = wire.AppendFrame(req, id, wire.OpScan, body)
	}
	return req
}

// TestHalfCloseWhilePausedTearsDown pauses a connection by backpressure
// (a scan burst whose responses the client never reads) and then
// half-closes it with FIN. A paused reader executes nothing, but it keeps
// buffering request bytes until its input buffer fills, so it sees the
// EOF and must tear the connection down from it. A reader that simply
// blocked until the backlog drained would never notice: the client reads
// nothing, so the connection and its sessions would never die.
func TestHalfCloseWhilePausedTearsDown(t *testing.T) {
	testutil.LeakCheck(t)
	s, srv, addr := startServer(t, 4, Options{})
	for i := uint64(0); i < 5000; i++ {
		s.Put(i, i)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	// 512 full pages ≈ 40 MiB of responses, to a client whose small
	// receive buffer keeps the kernel from absorbing much of them: the
	// backlog crosses the 8 MiB high-water mark and cannot drain below
	// the low-water mark, so the connection pauses and stays paused.
	if err := nc.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatalf("set read buffer: %v", err)
	}
	if _, err := nc.Write(scanBurst(512)); err != nil {
		t.Fatalf("write scan burst: %v", err)
	}
	testutil.Eventually(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 1
	}, "server never registered the connection")
	testutil.Eventually(t, func() bool { return srv.metrics.connsPaused.Value() == 1 },
		"the connection never paused")
	// Send FIN without having read a byte.
	if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatalf("half-close: %v", err)
	}
	testutil.Eventually(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	}, "paused connection not torn down after peer half-close")
}

// TestBurstWithPromptReaderNeverWedges pipelines bursts of 128 full scan
// pages (about 10 MiB each) at a client that reads promptly, so the
// reader's pause and the writer's resume race each other whenever the
// backlog crosses the high-water mark. A lost resume (the writer draining
// below the low-water mark without waking the paused reader, or the
// reader missing the wake while blocked in a read) leaves requests
// unexecuted forever. Each round's trailing ping probes for exactly that
// wedge.
func TestBurstWithPromptReaderNeverWedges(t *testing.T) {
	testutil.LeakCheck(t)
	s, _, addr := startServer(t, 4, Options{})
	for i := uint64(0); i < 5000; i++ {
		s.Put(i, i)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(60 * time.Second))
	var buf []byte
	for round := 0; round < 4; round++ {
		const pages = 128
		if _, err := nc.Write(scanBurst(pages)); err != nil {
			t.Fatalf("round %d: write burst: %v", round, err)
		}
		for got := 0; got < pages; got++ {
			_, status, _, nbuf, err := wire.ReadFrame(nc, buf)
			buf = nbuf
			if err != nil {
				t.Fatalf("round %d: page %d: %v", round, got, err)
			}
			if status != wire.StatusOK {
				t.Fatalf("round %d: page %d: status %d", round, got, status)
			}
		}
		probe := wire.AppendFrame(nil, 1000+uint64(round), wire.OpPing, nil)
		if _, err := nc.Write(probe); err != nil {
			t.Fatalf("round %d: write probe: %v", round, err)
		}
		_, status, _, nbuf, err := wire.ReadFrame(nc, buf)
		buf = nbuf
		if err != nil || status != wire.StatusOK {
			t.Fatalf("round %d: probe after burst: status %d err %v", round, status, err)
		}
	}
}

// TestMidFrameResetCleansUp opens connections that die at every
// interesting moment — after the length prefix, mid-header, mid-body,
// between frames — with snapshot sessions open, and asserts the server
// releases everything: sessions close (reclamation resumes) and
// LeakCheck sees no goroutine or fd residue.
func TestMidFrameResetCleansUp(t *testing.T) {
	testutil.LeakCheck(t)
	s, srv, addr := startServer(t, 2, Options{SnapTTL: time.Hour})
	s.Put(1, 10)

	full := wire.AppendFrame(nil, 5, wire.OpSnap, nil)
	cuts := []int{1, 3, 4, 7, 12, len(full)}
	for _, cut := range cuts {
		for _, rst := range []bool{false, true} {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			if cut == len(full) {
				// Whole snap request: wait for the session to open so the
				// teardown path has real state to release.
				nc.Write(full)
				nc.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, status, _, _, err := wire.ReadFrame(nc, nil); err != nil || status != wire.StatusOK {
					t.Fatalf("snap open: status %d err %v", status, err)
				}
			} else {
				nc.Write(full[:cut])
			}
			if rst {
				if tc, ok := nc.(*net.TCPConn); ok {
					tc.SetLinger(0)
				}
			}
			nc.Close()
		}
	}

	// Every severed connection's state must drain: once the server has
	// forgotten them all, only the live-conn count remains.
	testutil.Eventually(t, func() bool {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		return n == 0
	}, "server still tracks %d conns after client resets", func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}())
}
