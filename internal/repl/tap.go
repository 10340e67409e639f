package repl

import (
	"errors"
	"math"
	"sync"
	"time"
)

// Tap is the primary's replication feed (it implements
// jiffy/durable.Feed): every durable update publishes its WAL record
// through it, and replica connections subscribe to the resulting stream.
//
// Three pieces of state make resume exact:
//
//   - The ring holds recently published records in publish (WAL-ack)
//     order, each stamped with a stream sequence number. ringFloor is the
//     largest version evicted from the ring; a replica whose watermark W
//     is >= ringFloor can resume purely from the ring (every record with
//     version > W is still buffered, because versions are unique and
//     records at or below W are already applied).
//
//   - inflight maps each in-progress update's token to its frontier lower
//     bound: the largest version published before the update began. The
//     store commits on a strictly increasing clock, so the update's
//     eventual version is strictly greater than its bound.
//
//   - The frontier is min over in-flight bounds (or the largest published
//     version when nothing is in flight): no record at or below it can
//     still arrive. A replica applies buffered records up to the frontier
//     it is handed and advances its watermark to it.
//
// When SyncAcks is set, Publish additionally blocks until every synced
// (caught-up) subscriber has acknowledged receipt of the record's
// sequence number, bounded by SyncTimeout — a laggard is severed (it
// reconnects and resumes) rather than blocking group commit forever.
// Synchronous receipt is what makes promote-on-failure lossless under a
// single failure: a write acknowledged to a client has reached every
// synced replica's buffer, so the promoted replica replays it.
type Tap struct {
	opts TapOptions

	mu        sync.Mutex
	cond      *sync.Cond
	closed    bool
	nextTok   uint64
	inflight  map[uint64]int64
	maxSeen   int64 // largest published version (floored at creation)
	ring      []entry
	firstSeq  uint64 // ring[0].seq when the ring is non-empty
	nextSeq   uint64
	ringBytes int64
	ringFloor int64 // largest version evicted (floored at creation)
	subs      map[*sub]struct{}
}

// entry is one published record in the ring. tid is the originating
// request's trace ID (0 untraced) and pub the publish time in unix nanos:
// the source turns them into repl_stream spans — publish to socket write —
// for traced records.
type entry struct {
	seq     uint64
	ver     int64
	payload []byte
	tid     uint64
	pub     int64
}

// TapOptions tunes a Tap. The zero value selects the defaults.
type TapOptions struct {
	// RingBytes is the ring's soft budget (default 8 MiB): beyond it,
	// entries no subscriber still needs are evicted from the front.
	RingBytes int64

	// HardRingBytes (default 4x RingBytes) bounds the ring even when a
	// slow subscriber still needs the front: crossing it severs the
	// laggard instead of growing without bound — it reconnects and
	// resumes (or re-bootstraps) rather than stalling the primary.
	HardRingBytes int64

	// SyncAcks makes Publish wait for every synced subscriber's receipt
	// acknowledgement (see the type comment).
	SyncAcks bool

	// SyncTimeout bounds that wait (default 2s); on expiry the laggards
	// are severed and the write proceeds.
	SyncTimeout time.Duration

	// Metrics receives the tap's instrumentation; nil disables it.
	Metrics *Metrics
}

func (o TapOptions) withDefaults() TapOptions {
	if o.RingBytes <= 0 {
		o.RingBytes = 8 << 20
	}
	if o.HardRingBytes <= 0 {
		o.HardRingBytes = 4 * o.RingBytes
	}
	if o.SyncTimeout <= 0 {
		o.SyncTimeout = 2 * time.Second
	}
	if o.Metrics == nil {
		o.Metrics = noopMetrics()
	}
	return o
}

// NewTap returns a Tap whose stream starts above floor — the store's
// recovered version: nothing at or below it can ever be published, and
// nothing below it is in the ring (ringFloor starts there, so a replica
// behind the floor takes disk catch-up or a bootstrap, never a silent
// gap).
func NewTap(floor int64, opts TapOptions) *Tap {
	t := &Tap{
		opts:      opts.withDefaults(),
		inflight:  make(map[uint64]int64),
		maxSeen:   floor,
		ringFloor: floor,
		subs:      make(map[*sub]struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Begin implements durable.Feed.
func (t *Tap) Begin() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	tok := t.nextTok
	t.nextTok++
	t.inflight[tok] = t.maxSeen
	return tok
}

// Abort implements durable.Feed.
func (t *Tap) Abort(token uint64) {
	t.mu.Lock()
	delete(t.inflight, token)
	t.cond.Broadcast() // the frontier may have advanced
	t.mu.Unlock()
}

// Publish implements durable.Feed. The payload is copied (the caller's
// buffer is pooled). With SyncAcks set it blocks — bounded by SyncTimeout
// — until every synced subscriber acknowledged receipt.
func (t *Tap) Publish(token uint64, version int64, payload []byte, tid uint64) {
	p := append([]byte(nil), payload...)
	pub := time.Now().UnixNano()
	t.opts.Metrics.RecordsPublished.Inc()
	t.mu.Lock()
	delete(t.inflight, token)
	if version > t.maxSeen {
		t.maxSeen = version
	}
	seq := t.nextSeq
	t.nextSeq++
	if len(t.ring) == 0 {
		t.firstSeq = seq
	}
	t.ring = append(t.ring, entry{seq: seq, ver: version, payload: p, tid: tid, pub: pub})
	t.ringBytes += int64(len(p))
	t.evictLocked()
	t.cond.Broadcast()
	if !t.opts.SyncAcks || t.closed {
		t.mu.Unlock()
		return
	}
	deadline := time.Now().Add(t.opts.SyncTimeout)
	timer := time.AfterFunc(t.opts.SyncTimeout, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	for !t.closed && !t.receiptAckedLocked(seq) {
		if !time.Now().Before(deadline) {
			n := t.severUnackedLocked(seq)
			if n > 0 {
				t.opts.Metrics.SyncTimeouts.Inc()
			}
			break
		}
		t.cond.Wait()
	}
	timer.Stop()
	t.mu.Unlock()
}

// receiptAckedLocked reports whether every live, synced subscriber has
// acknowledged receipt of seq. With no synced subscriber it is trivially
// true: a primary with no caught-up replica degrades to asynchronous
// operation rather than refusing writes.
func (t *Tap) receiptAckedLocked(seq uint64) bool {
	for s := range t.subs {
		if s.synced && !s.dead && s.acked < seq {
			return false
		}
	}
	return true
}

// severUnackedLocked marks every synced subscriber still missing seq as
// dead and returns how many it severed.
func (t *Tap) severUnackedLocked(seq uint64) int {
	n := 0
	for s := range t.subs {
		if s.synced && !s.dead && s.acked < seq {
			s.dead = true
			n++
		}
	}
	if n > 0 {
		t.opts.Metrics.Resyncs.Add(uint64(n))
		t.cond.Broadcast()
	}
	return n
}

// evictLocked trims the ring to its budget. Entries every subscriber has
// consumed go first; an entry a live subscriber still needs pins the ring
// until the hard cap, past which the pinning subscribers are severed
// (drop-and-resync) and eviction proceeds.
func (t *Tap) evictLocked() {
	for t.ringBytes > t.opts.RingBytes && len(t.ring) > 0 {
		e := t.ring[0]
		if t.subFloorLocked() <= e.seq {
			if t.ringBytes <= t.opts.HardRingBytes {
				return
			}
			n := 0
			for s := range t.subs {
				if !s.dead && s.next <= e.seq {
					s.dead = true
					n++
				}
			}
			t.opts.Metrics.Resyncs.Add(uint64(n))
			t.cond.Broadcast()
			continue
		}
		t.ring[0] = entry{}
		t.ring = t.ring[1:]
		t.firstSeq = e.seq + 1
		t.ringBytes -= int64(len(e.payload))
		if e.ver > t.ringFloor {
			t.ringFloor = e.ver
		}
	}
}

// subFloorLocked is the smallest next-sequence any live subscriber still
// wants (MaxUint64 with no live subscribers).
func (t *Tap) subFloorLocked() uint64 {
	floor := uint64(math.MaxUint64)
	for s := range t.subs {
		if !s.dead && s.next < floor {
			floor = s.next
		}
	}
	return floor
}

// frontierLocked is the tap-wide stability bound (see the type comment).
func (t *Tap) frontierLocked() int64 {
	f := t.maxSeen
	for _, lb := range t.inflight {
		if lb < f {
			f = lb
		}
	}
	return f
}

// Frontier returns the current tap-wide stability bound.
func (t *Tap) Frontier() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frontierLocked()
}

// Close wakes every blocked publisher and subscriber. Remove the tap from
// the store (SetFeed(nil)) before closing.
func (t *Tap) Close() {
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// LagStats is a point-in-time census of the tap's subscribers, feeding
// the jiffy_repl_* gauges.
type LagStats struct {
	// Replicas counts live subscribers (synced or catching up).
	Replicas int

	// MaxLagVersions is the largest (published version - reported
	// replica watermark) over live synced subscribers; 0 with none.
	MaxLagVersions int64

	// MaxLagBytes is the largest number of ring payload bytes past a
	// live synced subscriber's receipt acknowledgement; 0 with none.
	MaxLagBytes int64
}

// LagStats reports the current subscriber census.
func (t *Tap) LagStats() LagStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var st LagStats
	minAcked := uint64(math.MaxUint64)
	haveSynced := false
	for s := range t.subs {
		if s.dead {
			continue
		}
		st.Replicas++
		if !s.synced {
			continue
		}
		haveSynced = true
		if lag := t.maxSeen - s.wm; lag > st.MaxLagVersions {
			st.MaxLagVersions = lag
		}
		if s.acked < minAcked {
			minAcked = s.acked
		}
	}
	if haveSynced {
		for _, e := range t.ring {
			if e.seq > minAcked {
				st.MaxLagBytes += int64(len(e.payload))
			}
		}
	}
	return st
}

// Errors surfaced by a subscriber's nextBatch.
var (
	// errSevered: the tap dropped this subscriber (it lagged past the
	// ring's hard cap or missed a synchronous-ack deadline). The serving
	// connection closes; the replica reconnects and resumes.
	errSevered = errors.New("repl: subscriber severed, replica must resync")

	errTapClosed = errors.New("repl: tap closed")
)

// sub is one subscriber's cursor into the tap's stream. All fields are
// guarded by the tap's mutex.
type sub struct {
	t      *Tap
	next   uint64 // next sequence to deliver
	acked  uint64 // newest receipt-acknowledged sequence
	wm     int64  // replica-reported watermark (lag gauges)
	synced bool   // caught up: counted by synchronous-ack waits
	dead   bool   // severed; nextBatch returns errSevered

	// skip is the replica's watermark at a ring resume: records at or
	// below it are already applied there, so they are consumed without
	// counting against a batch's caps or holding back its frontier.
	skip int64
}

// subscribe registers a subscriber starting at the current end of the
// stream (new records only) or at the ring's start, and returns it along
// with the frontier observed at the same instant — safe to attach to
// catch-up batches read outside the lock, because every record at or
// below it was published (and therefore durable) before the subscription
// point, hence covered by the catch-up read.
func (t *Tap) subscribe(fromRingStart bool) (*sub, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &sub{t: t, next: t.nextSeq}
	if fromRingStart && len(t.ring) > 0 {
		s.next = t.firstSeq
	}
	if s.next > 0 {
		s.acked = s.next - 1
	}
	t.subs[s] = struct{}{}
	return s, t.frontierLocked()
}

// subscribeRing registers a ring-resume subscriber for a replica at
// watermark w, or reports that the ring no longer covers w (a record
// above w was evicted) and the caller must catch up from disk or
// bootstrap. Checked and registered under one lock so eviction cannot
// slip between.
func (t *Tap) subscribeRing(w int64) (*sub, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w < t.ringFloor {
		return nil, false
	}
	s := &sub{t: t, next: t.nextSeq, skip: w}
	if len(t.ring) > 0 {
		s.next = t.firstSeq
	}
	if s.next > 0 {
		s.acked = s.next - 1
	}
	t.subs[s] = struct{}{}
	return s, true
}

// unsubscribe removes s; the serving connection calls it on exit.
func (t *Tap) unsubscribe(s *sub) {
	t.mu.Lock()
	delete(t.subs, s)
	t.cond.Broadcast() // publishers waiting on s's ack give up on it
	t.mu.Unlock()
}

// markSynced flags s as caught up: from here on synchronous-ack waits
// include it and its acks gate Publish.
func (s *sub) markSynced() {
	t := s.t
	t.mu.Lock()
	s.synced = true
	t.mu.Unlock()
}

// ack records the replica's receipt acknowledgement and reported
// watermark.
func (s *sub) ack(seq uint64, wm int64) {
	t := s.t
	t.mu.Lock()
	if seq > s.acked {
		s.acked = seq
	}
	if wm > s.wm {
		s.wm = wm
	}
	t.cond.Broadcast()
	t.mu.Unlock()
}

// nextBatch blocks until records past the cursor are available (or wait
// elapses — a heartbeat — or the subscriber is severed or the tap
// closed) and returns up to maxRecords/maxBytes of them plus the
// frontier to attach: the tap-wide frontier, capped below the smallest
// version still undelivered to THIS subscriber. The cap matters: the
// tap-wide frontier covers records this subscriber has not yet been
// sent, and a replica advancing its watermark past an undelivered record
// would declare it applied while losing it.
func (s *sub) nextBatch(maxRecords int, maxBytes int64, wait time.Duration) (batch []entry, frontier int64, err error) {
	t := s.t
	deadline := time.Now().Add(wait)
	timer := time.AfterFunc(wait, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer timer.Stop()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.closed {
			return nil, 0, errTapClosed
		}
		if s.dead {
			return nil, 0, errSevered
		}
		if s.next < t.nextSeq {
			break
		}
		if !time.Now().Before(deadline) {
			return nil, t.frontierLocked(), nil // heartbeat: fully caught up
		}
		t.cond.Wait()
	}
	if len(t.ring) == 0 || s.next < t.firstSeq {
		// The cursor's records were evicted out from under us (the
		// eviction path should have severed us first; be defensive).
		s.dead = true
		return nil, 0, errSevered
	}
	i := int(s.next - t.firstSeq)
	var bytes int64
	sent := 0
	for ; i < len(t.ring); i++ {
		e := t.ring[i]
		if e.ver > s.skip {
			if sent > 0 && (sent >= maxRecords || bytes+int64(len(e.payload)) > maxBytes) {
				break
			}
			sent++
			bytes += int64(len(e.payload))
		}
		batch = append(batch, e)
		s.next = e.seq + 1
	}
	frontier = t.frontierLocked()
	for ; i < len(t.ring); i++ {
		if e := t.ring[i]; e.ver > s.skip && e.ver-1 < frontier {
			frontier = e.ver - 1
		}
	}
	return batch, frontier, nil
}
