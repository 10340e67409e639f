// Package trace is jiffyd's end-to-end request tracing layer: a
// fixed-size, lock-free flight recorder of typed span events stitched by
// a trace ID that the client generates and the wire protocol propagates
// (wire.FlagTraced). A single traced write leaves spans at every stage it
// crosses — client round trip, server execution, WAL append and
// group-commit fsync, replication stream and replica apply — so "where
// did this request spend its time" has an answer across up to four
// processes.
//
// The recorder borrows internal/obs's striped-cell idiom: spans land in
// per-stripe ring buffers of fixed-size slots, a writer picks its stripe
// with the per-P cheap random source and claims a slot with one atomic
// add plus a seqlock CAS — no mutex, no allocation, no unbounded memory.
// When two writers collide on a wrapped slot the loser DROPS its span
// (counted in jiffy_trace_spans_dropped_total) rather than wait: the
// flight recorder is diagnostic, the hot path is not allowed to block on
// it. Readers (the /trace endpoint) validate each slot's sequence word
// before and after copying it and discard torn reads, the classic seqlock
// discipline.
//
// Recording is always on: every request leaves spans (trace ID 0 when the
// client did not propagate one) and feeds the per-stage duration
// histograms (jiffy_stage_seconds{stage=...}) exactly, so /metrics can
// answer "where does p99 go" fleet-wide without any sampling bias. The
// sample rate (SetSampleRate, jiffyd -trace-sample) gates only the ring
// writes. See DESIGN.md §13.
package trace

import (
	"math/rand/v2"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Stage identifies where in the request's life a span was measured.
type Stage uint8

const (
	// StageClient is the client-side write round trip: encode to decode,
	// including queue wait, socket time and server execution.
	StageClient Stage = iota
	// StageClientEnqueue is the client-side queue wait: from the request
	// entering the pipelined writer's queue to the moment its bytes are
	// handed to the socket write.
	StageClientEnqueue
	// StageServer is server-side execution: the exec() seam both serving
	// cores share, from frame decode to response bytes appended.
	StageServer
	// StageWAL is the durable write path: WAL append including the group
	// commit queue wait and the leader's fsync, as one request sees it.
	StageWAL
	// StageFsync is one group-commit fsync at the WAL leader (trace ID 0:
	// a batch serves many requests; Extra carries the batch byte count).
	StageFsync
	// StageFlush is one coalesced response flush write; trace ID 0,
	// Extra carries the flushed byte count.
	StageFlush
	// StageReplStream is replication streaming: from a record's publish
	// into the tap to its batch frame being written to one subscriber.
	StageReplStream
	// StageReplApply is the replica applying one streamed record to its
	// local store.
	StageReplApply
	// StageReplAck is the source-side ack round trip: from a batch frame
	// written to the subscriber acking past it.
	StageReplAck

	numStages
)

var stageNames = [numStages]string{
	"client", "client_enqueue", "server", "wal", "fsync", "flush",
	"repl_stream", "repl_apply", "repl_ack",
}

// String returns the stage's exposition name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one recorded event, as Snapshot returns it.
type Span struct {
	Trace uint64 // stitching ID; 0 for untraced or batch-level spans
	Stage Stage
	Op    byte  // wire opcode (0 where not applicable)
	Start int64 // unix nanoseconds
	Dur   int64 // nanoseconds
	Extra int64 // stage-specific: bytes, record version, ...
}

// slot is one seqlock-guarded span cell. The sequence word is even when
// the slot is stable, odd while a writer owns it; a writer bumps it twice
// per publish, so a reader seeing the same even value before and after
// its copy has read a consistent span.
type slot struct {
	seq   atomic.Uint64
	tid   atomic.Uint64
	start atomic.Int64
	dur   atomic.Int64
	extra atomic.Int64
	meta  atomic.Uint64 // stage | op<<8
}

// stripe is one ring of slots with its own claim cursor, padded so
// neighboring stripes' cursors do not share a cache line.
type stripe struct {
	pos   atomic.Uint64
	_     [56]byte
	slots []slot
}

// Recorder is the flight recorder. The zero value is not usable; create
// one with NewRecorder. All methods are nil-receiver safe no-ops, so
// subsystems carry an optional *Recorder and call through unconditionally.
type Recorder struct {
	stripes    []stripe
	stripeMask int
	slotMask   uint64

	// sampleT is the ring-write threshold: a span lands in the ring when
	// a cheap random draw is <= sampleT. ^0 means always (rate 1.0).
	sampleT atomic.Uint64

	hist    [numStages]*obs.Histogram // nil until RegisterMetrics
	dropped *obs.Counter
}

// DefaultSlots is the default ring capacity per stripe.
const DefaultSlots = 1024

// NewRecorder returns a recorder holding slotsPerStripe spans (rounded up
// to a power of two; DefaultSlots when <= 0) in each of its stripes. The
// stripe count follows internal/obs: a power of two at or above
// GOMAXPROCS, clamped to [4, 64], so parallel writers rarely collide.
func NewRecorder(slotsPerStripe int) *Recorder {
	if slotsPerStripe <= 0 {
		slotsPerStripe = DefaultSlots
	}
	slots := 1
	for slots < slotsPerStripe {
		slots <<= 1
	}
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	n = min(max(n, 4), 64)
	r := &Recorder{
		stripes:    make([]stripe, n),
		stripeMask: n - 1,
		slotMask:   uint64(slots) - 1,
	}
	for i := range r.stripes {
		r.stripes[i].slots = make([]slot, slots)
	}
	r.sampleT.Store(^uint64(0))
	return r
}

// RegisterMetrics registers the per-stage duration histograms
// (jiffy_stage_seconds{stage=...}) and the ring-drop counter on reg.
// Every Record feeds its stage's histogram exactly, regardless of the
// sample rate.
func (r *Recorder) RegisterMetrics(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	for s := Stage(0); s < numStages; s++ {
		r.hist[s] = reg.Histogram(
			`jiffy_stage_seconds{stage="`+s.String()+`"}`,
			"Per-stage request latency attributed by the trace recorder.",
			obs.LatencyBuckets)
	}
	r.dropped = reg.Counter("jiffy_trace_spans_dropped_total",
		"Spans dropped by the flight recorder (ring write contention).")
}

// SetSampleRate sets the fraction of spans written to the ring (clamped
// to [0, 1]). Histograms are unaffected: they see every span.
func (r *Recorder) SetSampleRate(rate float64) {
	if r == nil {
		return
	}
	switch {
	case rate >= 1:
		r.sampleT.Store(^uint64(0))
	case rate <= 0:
		r.sampleT.Store(0)
	default:
		r.sampleT.Store(uint64(rate * float64(^uint64(0))))
	}
}

// Record stores one span: the stage histogram always, the ring subject to
// the sample rate. 0 allocations; safe from any goroutine; never blocks —
// on a claim collision the span is dropped and counted.
func (r *Recorder) Record(stage Stage, tid uint64, op byte, start time.Time, dur time.Duration, extra int64) {
	if r == nil {
		return
	}
	r.hist[stage].Observe(dur.Seconds())
	if t := r.sampleT.Load(); t != ^uint64(0) && (t == 0 || rand.Uint64() > t) {
		return
	}
	st := &r.stripes[int(rand.Uint64())&r.stripeMask]
	sl := &st.slots[(st.pos.Add(1)-1)&r.slotMask]
	seq := sl.seq.Load()
	if seq&1 != 0 || !sl.seq.CompareAndSwap(seq, seq+1) {
		// Another writer owns this slot (the ring lapped itself mid-write):
		// drop rather than wait. The recorder must never block the hot path.
		r.dropped.Inc()
		return
	}
	sl.tid.Store(tid)
	sl.start.Store(start.UnixNano())
	sl.dur.Store(int64(dur))
	sl.extra.Store(extra)
	sl.meta.Store(uint64(stage) | uint64(op)<<8)
	sl.seq.Store(seq + 2)
}

// Snapshot copies every stable span out of the rings, newest-first by
// start time. Torn slots (a writer mid-publish, or lapped between the two
// sequence reads) are skipped; the result is a sample of recent history,
// not a consistent cut — exactly what a flight recorder promises.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for i := range r.stripes {
		st := &r.stripes[i]
		for j := range st.slots {
			sl := &st.slots[j]
			seq := sl.seq.Load()
			if seq == 0 || seq&1 != 0 {
				continue // never written, or write in progress
			}
			sp := Span{
				Trace: sl.tid.Load(),
				Start: sl.start.Load(),
				Dur:   sl.dur.Load(),
				Extra: sl.extra.Load(),
			}
			meta := sl.meta.Load()
			sp.Stage, sp.Op = Stage(meta&0xff), byte(meta>>8)
			if sl.seq.Load() != seq {
				continue // torn: a writer republished underneath us
			}
			out = append(out, sp)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start > out[b].Start })
	return out
}

// Ctx is the per-request trace context a serving core threads through the
// layers a request crosses: the propagated trace ID plus per-stage
// nanosecond accumulators for the slow-request breakdown. It is embedded
// by value in per-connection state and reused across requests (Arm
// resets it), so tracing adds no per-request allocation. All methods are
// nil-receiver safe.
type Ctx struct {
	rec   *Recorder
	id    uint64
	op    byte
	nanos [numStages]int64
}

// Arm resets the context for one request: recorder, propagated trace ID
// (0 when the frame carried none) and opcode.
func (c *Ctx) Arm(rec *Recorder, id uint64, op byte) {
	if c == nil {
		return
	}
	c.rec, c.id, c.op = rec, id, op
	clear(c.nanos[:])
}

// ID returns the propagated trace ID (0 when untraced or nil).
func (c *Ctx) ID() uint64 {
	if c == nil {
		return 0
	}
	return c.id
}

// Observe records one span for the armed request's stage — duration
// measured from start to now — and accumulates it for StageNanos.
func (c *Ctx) Observe(stage Stage, start time.Time) {
	if c == nil || c.rec == nil {
		return
	}
	dur := time.Since(start)
	c.nanos[stage] += int64(dur)
	c.rec.Record(stage, c.id, c.op, start, dur, 0)
}

// StageNanos returns the nanoseconds accumulated in stage since Arm.
func (c *Ctx) StageNanos(stage Stage) int64 {
	if c == nil {
		return 0
	}
	return c.nanos[stage]
}
