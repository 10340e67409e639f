package repl

import (
	"cmp"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
	"repro/jiffy"
	"repro/jiffy/durable"
)

// SourceStore is what the replication source needs from the primary's
// store; *durable.Sharded satisfies it, and so does a promoted
// *durable.Replica (a promoted node can serve replicas of its own).
type SourceStore[K cmp.Ordered, V any] interface {
	Snapshot() *jiffy.ShardedSnapshot[K, V]
	SetFeed(durable.Feed)
	TailAbove(version int64) ([]durable.TailRecord, error)
	RecoveredVersion() int64
	DurStats() durable.DurStats

	// Epoch, EpochStart and EpochBoundaryAbove expose the store's
	// persisted fencing-epoch history (durable's EpochFile): the current
	// epoch and its start version are announced to every proto-2
	// replica, and the boundary decides whether a rejoining replica may
	// resume or must re-bootstrap.
	Epoch() int64
	EpochStart() int64
	EpochBoundaryAbove(epoch int64) int64
}

// SourceOptions tunes a Source. The zero value selects the defaults.
type SourceOptions struct {
	// Tap tunes the in-memory stream buffer (ring budget, synchronous
	// acks). Tap.Metrics defaults to Metrics below.
	Tap TapOptions

	// BatchRecords and BatchBytes cap one OpReplBatch frame (defaults
	// 512 records, 1 MiB).
	BatchRecords int
	BatchBytes   int64

	// HeartbeatEvery is the idle-stream heartbeat interval (default
	// 500ms). Heartbeats carry the frontier, so a replica's watermark
	// keeps advancing while the primary is idle.
	HeartbeatEvery time.Duration

	// WriteTimeout bounds each frame write (default 5s); a replica that
	// cannot drain the stream is disconnected rather than blocking the
	// sender goroutine forever.
	WriteTimeout time.Duration

	// HelloTimeout bounds the wait for a new connection's HELLO frame
	// (default 10s).
	HelloTimeout time.Duration

	// SnapChunkBytes caps one bootstrap chunk frame (default 256 KiB).
	SnapChunkBytes int

	// Logf receives connection lifecycle messages; nil silences them.
	Logf func(format string, args ...any)

	// Metrics receives the source's instrumentation; nil disables it.
	Metrics *Metrics

	// OnPeerEpoch, when non-nil, is called with any fencing epoch a
	// connecting replica announces that is HIGHER than the store's own —
	// proof that another node was promoted past this primary. The hook
	// fences the node (stops writes, demotes); the offending connection
	// is refused either way.
	OnPeerEpoch func(epoch int64)

	// Tracer, when non-nil, receives the source's flight-recorder spans:
	// repl_stream (a traced record's publish-to-socket-write latency) and
	// repl_ack (batch write to replica receipt acknowledgement).
	Tracer *trace.Recorder
}

func (o SourceOptions) withDefaults() SourceOptions {
	if o.BatchRecords <= 0 {
		o.BatchRecords = 512
	}
	if o.BatchBytes <= 0 {
		o.BatchBytes = 1 << 20
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 500 * time.Millisecond
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.HelloTimeout <= 0 {
		o.HelloTimeout = 10 * time.Second
	}
	if o.SnapChunkBytes <= 0 {
		o.SnapChunkBytes = 256 << 10
	}
	if o.Metrics == nil {
		o.Metrics = noopMetrics()
	}
	if o.Tap.Metrics == nil {
		o.Tap.Metrics = o.Metrics
	}
	return o
}

// Source is the primary side of replication: it taps the store's durable
// updates and serves the stream to any number of replica connections.
// Each connection is caught up by the cheapest tier its watermark allows
// — the in-memory ring, the on-disk log tail, or a full checkpoint-style
// bootstrap cut from a live snapshot — and then follows the live stream.
type Source[K cmp.Ordered, V any] struct {
	store SourceStore[K, V]
	codec durable.Codec[K, V]
	opts  SourceOptions
	tap   *Tap
	met   *Metrics

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewSource installs a tap on store and returns a Source ready to Serve.
// Close the Source to detach the tap.
func NewSource[K cmp.Ordered, V any](store SourceStore[K, V], codec durable.Codec[K, V], opts SourceOptions) *Source[K, V] {
	opts = opts.withDefaults()
	s := &Source[K, V]{
		store: store,
		codec: codec,
		opts:  opts,
		tap:   NewTap(store.RecoveredVersion(), opts.Tap),
		met:   opts.Metrics,
		conns: make(map[net.Conn]struct{}),
	}
	store.SetFeed(s.tap)
	return s
}

// Tap returns the source's tap (for gauges and tests).
func (s *Source[K, V]) Tap() *Tap { return s.tap }

func (s *Source[K, V]) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Serve accepts replica connections on ln until Close. It returns nil
// after Close, or the first non-shutdown accept error.
func (s *Source[K, V]) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Close detaches the tap from the store, stops the listener, severs every
// replica connection and waits for their goroutines.
func (s *Source[K, V]) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.store.SetFeed(nil)
	s.tap.Close()
	s.wg.Wait()
	return nil
}

// handle speaks the replication protocol on one connection: HELLO, a
// catch-up tier, then the live stream until the connection drops or the
// subscriber is severed.
func (s *Source[K, V]) handle(c net.Conn) {
	defer c.Close()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c.SetReadDeadline(time.Now().Add(s.opts.HelloTimeout))
	_, op, body, _, err := wire.ReadFrame(c, nil)
	if err != nil || op != wire.OpReplHello || len(body) < 12 {
		s.logf("repl: %s: bad hello (op %d, err %v)", c.RemoteAddr(), op, err)
		return
	}
	proto := binary.LittleEndian.Uint32(body)
	if proto < 1 || proto > 3 {
		s.logf("repl: %s: unsupported protocol %d", c.RemoteAddr(), proto)
		return
	}
	// Proto 3 record layout carries a per-record trace ID; older replicas
	// get the proto<=2 layout on the same stream code path.
	traced := proto >= 3
	want := int64(binary.LittleEndian.Uint64(body[4:]))
	forceBootstrap := false
	if proto >= 2 {
		if len(body) < 20 {
			s.logf("repl: %s: short proto-2 hello (%d bytes)", c.RemoteAddr(), len(body))
			return
		}
		peerEpoch := int64(binary.LittleEndian.Uint64(body[12:]))
		myEpoch := s.store.Epoch()
		if peerEpoch > myEpoch {
			// The replica has seen a newer primacy than ours: we are the
			// stale primary. Refuse the stream and let the hook fence us.
			s.logf("repl: %s: replica announces epoch %d above ours (%d); fencing",
				c.RemoteAddr(), peerEpoch, myEpoch)
			if s.opts.OnPeerEpoch != nil {
				s.opts.OnPeerEpoch(peerEpoch)
			}
			return
		}
		// Announce our epoch before any catch-up tier, so the replica's
		// history records the boundary before it applies a single record.
		eb := binary.LittleEndian.AppendUint64(nil, uint64(myEpoch))
		eb = binary.LittleEndian.AppendUint64(eb, uint64(s.store.EpochStart()))
		if err := s.writeAll(c, wire.AppendFrame(nil, 0, wire.OpReplEpoch, eb)); err != nil {
			s.logf("repl: %s: epoch announce: %v", c.RemoteAddr(), err)
			return
		}
		if peerEpoch < myEpoch {
			// The replica predates at least one promote. Below the first
			// promote boundary above its epoch the histories are
			// identical and a resume is exact; past it the replica may
			// hold records the promote discarded, and only a full
			// bootstrap converges it.
			if boundary := s.store.EpochBoundaryAbove(peerEpoch); want > boundary {
				s.logf("repl: %s: watermark %d past epoch-%d boundary %d; forcing bootstrap",
					c.RemoteAddr(), want, peerEpoch, boundary)
				forceBootstrap = true
			}
		}
	}
	c.SetReadDeadline(time.Time{})

	if forceBootstrap {
		want = -1
	}
	sb, filter, err := s.catchUp(c, want, traced)
	if err != nil {
		s.logf("repl: %s: catch-up from version %d: %v", c.RemoteAddr(), want, err)
		return
	}
	defer s.tap.unsubscribe(sb)
	var at *ackTrack
	if s.opts.Tracer != nil {
		at = &ackTrack{}
	}
	go s.readAcks(c, sb, at)
	sb.markSynced()
	s.stream(c, sb, filter, traced, at)
}

// ackTrack remembers when each streamed batch hit the socket, so the
// replica's receipt acknowledgement can be turned into a repl_ack span.
// Bounded: past ackTrackWindow outstanding sends the oldest is dropped
// (its span is lost, nothing ever blocks on it). Stream goroutine pushes,
// ack goroutine pops.
type ackTrack struct {
	mu  sync.Mutex
	buf []ackSent
}

type ackSent struct {
	seq    uint64
	tid    uint64 // first traced record in the batch (0: none)
	sentAt time.Time
}

const ackTrackWindow = 64

func (a *ackTrack) push(seq, tid uint64, sentAt time.Time) {
	a.mu.Lock()
	if len(a.buf) >= ackTrackWindow {
		a.buf = append(a.buf[:0], a.buf[1:]...)
	}
	a.buf = append(a.buf, ackSent{seq: seq, tid: tid, sentAt: sentAt})
	a.mu.Unlock()
}

// pop removes every send at or below seq and records its repl_ack span.
func (a *ackTrack) pop(tr *trace.Recorder, seq uint64, now time.Time) {
	a.mu.Lock()
	n := 0
	for n < len(a.buf) && a.buf[n].seq <= seq {
		n++
	}
	acked := a.buf[:n]
	for _, e := range acked {
		tr.Record(trace.StageReplAck, e.tid, 0, e.sentAt, now.Sub(e.sentAt), 0)
	}
	a.buf = append(a.buf[:0], a.buf[n:]...)
	a.mu.Unlock()
}

// catchUp brings a replica at watermark want level with the stream and
// returns its subscribed cursor plus the version at or below which
// streamed records are redundant (covered by the catch-up) and filtered.
// In every tier the subscription is registered BEFORE the catch-up data
// is read, so any record missing from the read is published after the
// subscription point and arrives on the stream; overlap is resolved by
// the replica, which de-duplicates by version (versions are unique).
func (s *Source[K, V]) catchUp(c net.Conn, want int64, traced bool) (*sub, int64, error) {
	// Tier 1: the ring still holds every record above want.
	if sb, ok := s.tap.subscribeRing(want); ok {
		return sb, want, nil
	}
	// Tier 2: the on-disk log does (nothing above the checkpoint cut is
	// ever truncated). A checkpoint racing the read surfaces as a read
	// error, and the bootstrap tier takes over.
	if ck := s.store.DurStats().CheckpointVersion; want >= ck {
		sb, frontier := s.tap.subscribe(false)
		recs, err := s.store.TailAbove(want)
		if err == nil {
			if err := s.sendDiskTail(c, recs, frontier, traced); err != nil {
				s.tap.unsubscribe(sb)
				return nil, 0, err
			}
			s.met.Catchups.Inc()
			return sb, want, nil
		}
		s.tap.unsubscribe(sb)
		s.logf("repl: %s: disk catch-up lost to a checkpoint (%v); bootstrapping", c.RemoteAddr(), err)
	}
	// Tier 3: full state bootstrap from a live snapshot.
	sb, _ := s.tap.subscribe(false)
	vs, err := s.sendBootstrap(c)
	if err != nil {
		s.tap.unsubscribe(sb)
		return nil, 0, err
	}
	s.met.Bootstraps.Inc()
	return sb, vs, nil
}

// minFrameBytes caps the records of the first batch frame a connection
// carries; the cap doubles with every frame written, up to BatchBytes.
// The slow start keeps the resume loop live on a link that fails every
// few KiB: each connection still delivers one small frame, so the next
// resumes from a higher watermark instead of re-sending a frame that
// never arrives whole.
const minFrameBytes = 4 << 10

// appendBatchFrame appends one OpReplBatch frame carrying recs (already
// filtered) to dst. traced selects the proto-3 record layout, which
// carries each record's trace ID between version and payload.
func appendBatchFrame(dst []byte, frontier int64, lastSeq uint64, recs []durable.TailRecord, traced bool) []byte {
	buf, lenAt := wire.BeginFrame(dst, 0, wire.OpReplBatch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(frontier))
	buf = binary.LittleEndian.AppendUint64(buf, lastSeq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Version))
		if traced {
			// Uvarint: the untraced common case (sampling keeps traced
			// records rare) costs one byte, not eight.
			buf = binary.AppendUvarint(buf, r.Tid)
		}
		buf = wire.AppendBytes(buf, r.Payload)
	}
	return wire.EndFrame(buf, lenAt)
}

// writeAll writes buf to c under the write deadline.
func (s *Source[K, V]) writeAll(c net.Conn, buf []byte) error {
	c.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	_, err := c.Write(buf)
	return err
}

// sendDiskTail ships the log tail in batch frames. Disk batches carry
// lastSeq 0 (they predate the stream cursor) and the frontier captured
// at subscription: every record at or below it was durable before the
// subscription point and is therefore in this tail.
func (s *Source[K, V]) sendDiskTail(c net.Conn, recs []durable.TailRecord, frontier int64, traced bool) error {
	var frame []byte
	limit := min(minFrameBytes, s.opts.BatchBytes)
	for len(recs) > 0 {
		n, bytes := 0, int64(0)
		for n < len(recs) && n < s.opts.BatchRecords {
			sz := int64(len(recs[n].Payload))
			if n > 0 && bytes+sz > limit {
				break
			}
			bytes += sz
			n++
		}
		// The tail is in version order: a frame that leaves records
		// unsent caps its frontier below them, or a replica cut off
		// before the next frame would resume past them.
		fr := frontier
		if n < len(recs) {
			fr = min(fr, recs[n].Version-1)
		}
		frame = appendBatchFrame(frame[:0], fr, 0, recs[:n], traced)
		if err := s.writeAll(c, frame); err != nil {
			return err
		}
		recs = recs[n:]
		limit = min(2*limit, s.opts.BatchBytes)
	}
	return nil
}

// sendBootstrap streams a full consistent cut: SnapBegin, chunked
// key/value pairs, SnapEnd. Returns the cut version.
func (s *Source[K, V]) sendBootstrap(c net.Conn) (int64, error) {
	snap := s.store.Snapshot()
	defer snap.Close()
	vs := snap.Version()

	begin := wire.AppendFrame(nil, 0, wire.OpReplSnapBegin,
		binary.LittleEndian.AppendUint64(nil, uint64(vs)))
	if err := s.writeAll(c, begin); err != nil {
		return 0, err
	}

	var (
		buf        []byte
		lenAt, nAt int
		count      uint32
		kbuf, vbuf []byte
		werr       error
	)
	beginChunk := func() {
		buf, lenAt = wire.BeginFrame(buf[:0], 0, wire.OpReplSnapChunk)
		nAt = len(buf)
		buf = append(buf, 0, 0, 0, 0) // u32 n placeholder
		count = 0
	}
	flushChunk := func() error {
		if count == 0 {
			return nil
		}
		binary.LittleEndian.PutUint32(buf[nAt:], count)
		return s.writeAll(c, wire.EndFrame(buf, lenAt))
	}
	beginChunk()
	snap.All(func(k K, v V) bool {
		kbuf = s.codec.Key.Append(kbuf[:0], k)
		vbuf = s.codec.Value.Append(vbuf[:0], v)
		buf = wire.AppendBytes(buf, kbuf)
		buf = wire.AppendBytes(buf, vbuf)
		count++
		if len(buf) >= s.opts.SnapChunkBytes {
			if werr = flushChunk(); werr != nil {
				return false
			}
			beginChunk()
		}
		return true
	})
	if werr != nil {
		return 0, werr
	}
	if err := flushChunk(); err != nil {
		return 0, err
	}
	end := wire.AppendFrame(nil, 0, wire.OpReplSnapEnd, nil)
	if err := s.writeAll(c, end); err != nil {
		return 0, err
	}
	return vs, nil
}

// stream follows the live tail: batches when there is data, heartbeats
// when there is not. Records at or below filter are redundant with the
// catch-up tier and dropped (their sequence numbers are still consumed
// and acknowledged).
func (s *Source[K, V]) stream(c net.Conn, sb *sub, filter int64, traced bool, at *ackTrack) {
	var frame []byte
	recs := make([]durable.TailRecord, 0, s.opts.BatchRecords)
	pubs := make([]int64, 0, s.opts.BatchRecords) // publish nanos, parallel to recs
	lastSeq := uint64(0)
	tr := s.opts.Tracer
	limit := min(minFrameBytes, s.opts.BatchBytes)
	for {
		batch, frontier, err := sb.nextBatch(s.opts.BatchRecords, limit, s.opts.HeartbeatEvery)
		if err != nil {
			if err == errSevered {
				s.logf("repl: %s: severed for lagging; replica will resync", c.RemoteAddr())
			}
			return
		}
		recs, pubs = recs[:0], pubs[:0]
		for _, e := range batch {
			if e.ver > filter {
				recs = append(recs, durable.TailRecord{Version: e.ver, Payload: e.payload, Tid: e.tid})
				pubs = append(pubs, e.pub)
			}
			lastSeq = e.seq
		}
		frame = appendBatchFrame(frame[:0], frontier, lastSeq, recs, traced)
		if err := s.writeAll(c, frame); err != nil {
			s.logf("repl: %s: write: %v", c.RemoteAddr(), err)
			return
		}
		limit = min(2*limit, s.opts.BatchBytes)
		if tr != nil && len(batch) > 0 {
			now := time.Now()
			batchTid := uint64(0)
			for i, r := range recs {
				if r.Tid == 0 {
					continue
				}
				if batchTid == 0 {
					batchTid = r.Tid
				}
				// repl_stream: publish (WAL ack on the primary) to the byte
				// hitting this replica's socket.
				pub := time.Unix(0, pubs[i])
				tr.Record(trace.StageReplStream, r.Tid, 0, pub, now.Sub(pub), int64(len(r.Payload)))
			}
			if at != nil {
				at.push(lastSeq, batchTid, now)
			}
		}
	}
}

// readAcks drains OpReplAck frames, feeding the subscriber's receipt
// cursor (synchronous-ack waits) and reported watermark (lag gauges). A
// read error closes the connection, which unblocks the sender.
func (s *Source[K, V]) readAcks(c net.Conn, sb *sub, at *ackTrack) {
	var buf []byte
	for {
		_, op, body, nbuf, err := wire.ReadFrame(c, buf)
		buf = nbuf
		if err != nil {
			c.Close()
			return
		}
		if op != wire.OpReplAck || len(body) < 16 {
			s.logf("repl: %s: unexpected frame op %d on ack channel", c.RemoteAddr(), op)
			c.Close()
			return
		}
		seq := binary.LittleEndian.Uint64(body)
		sb.ack(seq, int64(binary.LittleEndian.Uint64(body[8:])))
		if at != nil {
			at.pop(s.opts.Tracer, seq, time.Now())
		}
	}
}
