package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/jiffy"
	"repro/jiffy/client"
	"repro/jiffy/durable"
)

// startBytesServer serves a []byte-valued map prefilled with n values of
// size bytes each, so full scans return pages at the byte budget.
func startBytesServer(t *testing.T, n, size int) *Server[uint64, []byte] {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := jiffy.NewSharded[uint64, []byte](2)
	for i := 0; i < n; i++ {
		s.Put(uint64(i), make([]byte, size))
	}
	codec := durable.Codec[uint64, []byte]{Key: durable.Uint64Enc(), Value: durable.BytesEnc()}
	srv := Serve(ln, NewMemStore(s), codec, Options{})
	t.Cleanup(func() { srv.Close() })
	return srv
}

// onlyConn returns the server's single registered connection.
func onlyConn(t *testing.T, srv *Server[uint64, []byte]) *conn[uint64, []byte] {
	t.Helper()
	var c *conn[uint64, []byte]
	testutil.Eventually(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for sc := range srv.conns {
			c = sc
		}
		return len(srv.conns) == 1
	}, "server never registered exactly one connection")
	return c
}

// TestUnreadScanBacklogBounded pipelines 200 full-scan requests, each
// answered by a page at the 4 MiB byte budget, from a client that reads
// nothing. The server must pause the connection instead of executing the
// whole burst: without backpressure every page would be encoded and
// queued (about 800 MiB of server heap). Once the client starts reading,
// the connection must resume.
func TestUnreadScanBacklogBounded(t *testing.T) {
	testutil.LeakCheck(t)
	const pages = 200
	srv := startBytesServer(t, 80, 64<<10) // 5 MiB of values: pages truncate at 4 MiB
	m := srv.metrics

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if _, err := nc.Write(scanBurst(pages)); err != nil {
		t.Fatalf("write scan burst: %v", err)
	}
	c := onlyConn(t, srv)

	testutil.Eventually(t, func() bool { return m.pauses.Value() > 0 },
		"a connection that reads nothing was never paused")
	// Let the writer fill the kernel's socket buffers, then check that
	// execution stopped with a bounded backlog.
	time.Sleep(200 * time.Millisecond)
	if got := m.connsPaused.Value(); got != 1 {
		t.Errorf("jiffyd_connections_paused = %d, want 1", got)
	}
	if got := m.requests[wire.OpScan].Value(); got >= pages/2 {
		t.Errorf("%d of %d scans executed for a client that reads nothing", got, pages)
	}
	if q := c.queued.Load(); q > outHighWater+maxScanPageBytes {
		t.Errorf("output backlog %d bytes, want <= %d", q, outHighWater+maxScanPageBytes)
	}

	// Start reading: the connection resumes. Reading several times the
	// pages that could run before the pause proves execution restarted;
	// the deadline is per page, so only a wedge fails, not a slow machine.
	var buf []byte
	for got := 0; got < pages/4; got++ {
		nc.SetReadDeadline(time.Now().Add(20 * time.Second))
		_, status, body, nbuf, err := wire.ReadFrame(nc, buf)
		buf = nbuf
		if err != nil {
			t.Fatalf("page %d: %v", got, err)
		}
		if status != wire.StatusOK || len(body) < 3<<20 {
			t.Fatalf("page %d: status %d, %d bytes", got, status, len(body))
		}
	}
	if m.resumes.Value() == 0 {
		t.Error("reading the backlog never resumed the connection")
	}
	// Hanging up with pages still queued tears the connection down.
	nc.Close()
	testutil.Eventually(t, func() bool { return m.conns.Value() == 0 && m.connsPaused.Value() == 0 },
		"connection not torn down after the client hung up")
}

// TestConnBuffersShrink checks that a connection does not keep the
// buffers one large request and one large scan page grew: the reader's
// frame buffer and the writer's coalescing buffer both fall back under
// bufShrink once used.
func TestConnBuffersShrink(t *testing.T) {
	testutil.LeakCheck(t)
	srv := startBytesServer(t, 80, 64<<10)
	codec := durable.Codec[uint64, []byte]{Key: durable.Uint64Enc(), Value: durable.BytesEnc()}
	cl, err := client.Dial(srv.Addr().String(), codec, client.Options{Conns: 1, ScanPageSize: 4096})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Put(1000, make([]byte, 1<<20)); err != nil { // a 1 MiB request frame
		t.Fatalf("put: %v", err)
	}
	sc := cl.ScanAll() // the first page hits the 4 MiB byte budget
	n := 0
	for sc.Next() {
		n++
	}
	if err := sc.Err(); err != nil || n != 81 {
		t.Fatalf("scan: %d entries, err %v; want 81", n, err)
	}
	sc.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	c := onlyConn(t, srv)
	srv.Close() // joins the reader and writer, so their fields are settled
	if got := cap(c.rbuf); got > bufShrink {
		t.Errorf("reader frame buffer kept %d bytes of capacity, want <= %d", got, bufShrink)
	}
	if got := cap(c.wbuf); got > bufShrink {
		t.Errorf("writer coalescing buffer kept %d bytes of capacity, want <= %d", got, bufShrink)
	}
}

// blockingStore parks every Put until release is closed, as a durable
// store does during a slow fsync.
type blockingStore struct {
	Store[uint64, uint64]
	entered chan struct{}
	release chan struct{}
}

func (b *blockingStore) Put(key, val uint64, tc *trace.Ctx) (int64, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Store.Put(key, val, tc)
}

// TestBlockingHandlerStallsOnlyItsConn holds one connection inside a
// blocked Put and requires a second connection to keep being served:
// a handler that blocks stalls its own connection and nothing else.
func TestBlockingHandlerStallsOnlyItsConn(t *testing.T) {
	testutil.LeakCheck(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := jiffy.NewSharded[uint64, uint64](2)
	s.Put(7, 70)
	bs := &blockingStore{Store: NewMemStore(s), entered: make(chan struct{}), release: make(chan struct{})}
	srv := Serve(ln, bs, u64Codec(), Options{})
	defer srv.Close()
	var once sync.Once
	unblock := func() { once.Do(func() { close(bs.release) }) }
	defer unblock() // runs before srv.Close, so a failing run still shuts down

	stuck := dial(t, srv.Addr().String(), client.Options{Conns: 1})
	putErr := make(chan error, 1)
	go func() { putErr <- stuck.Put(1, 10) }()
	<-bs.entered

	healthy := dial(t, srv.Addr().String(), client.Options{Conns: 1})
	done := make(chan error, 1)
	go func() {
		if err := healthy.Ping(); err != nil {
			done <- err
			return
		}
		v, ok, err := healthy.Get(7)
		if err == nil && (!ok || v != 70) {
			t.Errorf("get 7 = %d/%v, want 70", v, ok)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second connection: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a blocked Put on one connection stalled another connection's Ping and Get")
	}

	unblock()
	if err := <-putErr; err != nil {
		t.Fatalf("blocked put: %v", err)
	}
}
