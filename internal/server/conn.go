package server

import (
	"bufio"
	"cmp"
	"errors"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// This file is the serving core: one acceptor goroutine, and per
// connection two goroutines, mirroring the WAL's group-commit split
// (internal/persist): a reader that decodes request frames and executes
// them inline against the store, and a writer that coalesces the resulting
// response frames into as few socket writes as possible. A handler that
// blocks (a durable fsync) stalls only its own connection. See DESIGN.md
// §9.

const (
	// outHighWater pauses reading from a connection whose unwritten
	// output exceeds it: the client is not consuming responses, so the
	// server stops executing its requests (TCP pushes back from there)
	// instead of buffering without bound. Large enough for one max-sized
	// scan page plus headroom.
	outHighWater = 8 << 20

	// outLowWater resumes reading once a paused connection's backlog
	// drains below it.
	outLowWater = 1 << 20

	// inBufSize is the reader's socket buffer: one read drains every
	// request frame already queued in the socket, up to this many bytes.
	// While paused it is also the most unexecuted input a connection
	// holds.
	inBufSize = 16 << 10

	// bufShrink drops a per-connection frame buffer (the reader's request
	// frame, the writer's coalescing buffer) grown past it once it has
	// been used, so one big frame does not pin megabytes for the
	// connection's life.
	bufShrink = 256 << 10
)

// aLongTimeAgo is a read deadline already in the past: setting it
// interrupts a blocked read.
var aLongTimeAgo = time.Unix(1, 0)

// respPool recycles response frame buffers between a conn's reader (which
// encodes into them) and its writer (which releases them after copying
// into the coalescing buffer). Buffers grown past maxPooledRespBytes by a
// large scan page are dropped instead of pooled, so one big scan does not
// pin multi-megabyte backing arrays behind every future ping.
const maxPooledRespBytes = 64 << 10

var respPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func getResp() []byte { return (*(respPool.Get().(*[]byte)))[:0] }
func putResp(b []byte) {
	if cap(b) > maxPooledRespBytes {
		return
	}
	respPool.Put(&b)
}

// conn is one client connection: the reader goroutine (readLoop) executes
// requests and queues encoded responses on out; the writer goroutine
// (writeLoop) coalesces them onto the socket.
//
// Output backpressure: queued counts response bytes handed to the writer
// and not yet written. The reader pauses once it crosses outHighWater and
// the writer resumes it below outLowWater. Whichever side clears paused
// (a CAS) owns the resume; when it is the writer, it first interrupts a
// read the paused reader may be blocked in, then sends one token on
// resume.
type conn[K cmp.Ordered, V any] struct {
	st  connState[K, V]
	c   net.Conn
	br  *bufio.Reader
	out chan []byte // 256 deep: a pipelined burst queues whole for one write

	queued atomic.Int64
	paused atomic.Bool
	resume chan struct{}
	broken atomic.Bool // severed: the reader executes nothing more

	rbuf []byte // request frame buffer, reader-owned
	wbuf []byte // coalescing buffer, writer-owned
}

// sever closes the connection for good. The reader stops before its next
// request, even one already buffered, and tears the connection down.
func (c *conn[K, V]) sever() {
	c.broken.Store(true)
	c.c.Close()
}

// acceptLoop accepts connections until the listener closes.
func (s *Server[K, V]) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.logf("jiffyd: accept: %v", err)
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if !s.spawnConn(nc) {
			return // server closed
		}
	}
}

// spawnConn registers nc and starts its reader and writer. Returns false
// when the server is already closed (nc is closed too).
func (s *Server[K, V]) spawnConn(nc net.Conn) bool {
	c := &conn[K, V]{
		st:     connState[K, V]{srv: s, sess: map[uint64]*session[K, V]{}},
		c:      nc,
		br:     bufio.NewReaderSize(nc, inBufSize),
		out:    make(chan []byte, 256),
		resume: make(chan struct{}, 1),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(2)
	s.mu.Unlock()
	s.metrics.connsTotal.Inc()
	s.metrics.conns.Add(1)
	go c.readLoop()
	go c.writeLoop()
	return true
}

// readLoop decodes and executes request frames until the connection
// drops, then tears the connection down: sessions close, the writer
// drains and exits, the server forgets the conn.
func (c *conn[K, V]) readLoop() {
	defer c.st.srv.wg.Done()
	m := c.st.srv.metrics
	for !c.broken.Load() {
		id, op, body, buf, err := wire.ReadFrame(c.br, c.rbuf)
		if err != nil {
			break
		}
		m.bytesIn.Add(uint64(4 + wire.FrameOverhead + len(body)))
		resp := c.st.exec(getResp(), id, op, body)
		if cap(buf) > bufShrink {
			buf = nil
		}
		c.rbuf = buf
		backlog := c.queued.Add(int64(len(resp)))
		c.out <- resp
		if backlog > outHighWater && c.pause() && c.awaitResume() != nil {
			break
		}
	}
	// Teardown. Closing the socket stops the writer's Write calls from
	// lingering on a peer that stopped reading.
	c.c.Close()
	if c.paused.CompareAndSwap(true, false) {
		m.connsPaused.Add(-1)
	}
	c.st.reapSessions(math.MaxInt64)
	close(c.out)
	c.st.srv.forget(c)
	m.conns.Add(-1)
}

// pause marks the connection paused by backpressure and reports whether
// the reader must wait for the writer to resume it (false when the
// writer drained the backlog before it could see the flag).
func (c *conn[K, V]) pause() bool {
	m := c.st.srv.metrics
	m.pauses.Inc()
	m.connsPaused.Add(1)
	c.paused.Store(true)
	if c.queued.Load() < outLowWater && c.paused.CompareAndSwap(true, false) {
		m.resumes.Inc()
		m.connsPaused.Add(-1)
		return false
	}
	return true
}

// awaitResume blocks a paused reader until the writer resumes it. While
// it waits it keeps buffering request bytes, without executing them,
// until the buffer fills: that is how a paused connection still notices
// its peer hanging up. An error means the connection is gone.
func (c *conn[K, V]) awaitResume() error {
	for {
		select {
		case <-c.resume:
			return c.c.SetReadDeadline(time.Time{})
		default:
		}
		if c.br.Buffered() < c.br.Size() {
			_, err := c.br.Peek(c.br.Buffered() + 1)
			if err == nil {
				continue
			}
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				return err
			}
		}
		// The input held is full (push back on the client), or the
		// writer interrupted the read and its token follows.
		<-c.resume
		return c.c.SetReadDeadline(time.Time{})
	}
}

// drained records n response bytes gone from the writer, resuming a
// paused reader once the backlog falls below outLowWater.
func (c *conn[K, V]) drained(n int) {
	if c.queued.Add(-int64(n)) >= outLowWater || !c.paused.CompareAndSwap(true, false) {
		return
	}
	m := c.st.srv.metrics
	m.resumes.Inc()
	m.connsPaused.Add(-1)
	// Interrupt a read the paused reader may be blocked in. This fails
	// only on a closed conn, whose reader fails its next read anyway.
	_ = c.c.SetReadDeadline(aLongTimeAgo)
	c.resume <- struct{}{}
}

// writeLoop coalesces response frames: one blocking receive, then a
// non-blocking drain of everything else already queued, one Write for the
// lot — the group-commit idiom, with the socket in the role of the log
// file. Exits when the reader closes out.
func (c *conn[K, V]) writeLoop() {
	defer c.st.srv.wg.Done()
	m := c.st.srv.metrics
	for f := range c.out {
		c.wbuf = append(c.wbuf[:0], f...)
		putResp(f)
		frames := 1
	drain:
		for len(c.wbuf) < 256<<10 {
			select {
			case f, ok := <-c.out:
				if !ok {
					break drain
				}
				c.wbuf = append(c.wbuf, f...)
				putResp(f)
				frames++
			default:
				break drain
			}
		}
		if !c.broken.Load() {
			tr := c.st.srv.opts.Tracer
			var fstart time.Time
			if tr != nil {
				fstart = time.Now()
			}
			if _, err := c.c.Write(c.wbuf); err == nil {
				if tr != nil {
					// Flush spans are batch-level (trace ID 0): one write
					// carries many responses.
					tr.Record(trace.StageFlush, 0, 0, fstart, time.Since(fstart), int64(len(c.wbuf)))
				}
				m.bytesOut.Add(uint64(len(c.wbuf)))
				m.flushBytes.Observe(float64(len(c.wbuf)))
				m.flushFrames.Observe(float64(frames))
			} else {
				// Sever the connection so the reader stops; keep
				// draining out so the reader never blocks sending to it.
				c.sever()
			}
		}
		c.drained(len(c.wbuf))
		if cap(c.wbuf) > bufShrink {
			c.wbuf = nil
		}
	}
}
