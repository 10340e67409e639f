package main

import (
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
	"repro/jiffy"
	"repro/jiffy/durable"
)

// span accumulates the calls crossing one layer boundary: how many, and
// their total duration. The boundaries carry no shared request ID, so a
// layer's self time is computed from these sums over one window, not per
// request.
type span struct{ n, ns atomic.Int64 }

func (s *span) add(d time.Duration) {
	s.n.Add(1)
	s.ns.Add(int64(d))
}

func (s *span) meanUs() float64 {
	if n := s.n.Load(); n > 0 {
		return float64(s.ns.Load()) / float64(n) / 1e3
	}
	return 0
}

// tracer holds the spans the traced run records around each layer's
// public entry points, all in this benchmark's own files: the program is
// not changed. While on is false every wrapper passes straight through,
// so the untraced slices of a traced run measure the program alone.
type tracer struct {
	on atomic.Bool

	// jiffy/client: one span per public call.
	clientGet, clientPut, clientBatch           span
	clientSnapOpen, clientScan, clientSnapClose span
	clientEntries                               atomic.Int64 // scan entries the client consumed

	// jiffy/durable, through the server.Store the server calls.
	durGet, durPut, durBatch, durSnapshot span
	iterNs, iterEntries                   atomic.Int64 // snapshot iterators: time in their calls, entries pulled

	// internal/repl: records applied on the replica.
	replApply span

	// jiffy: calls into the embedded Sharded map.
	jGet, jBatchSingle, jBatchCross, jSnapshot span
	jScanNs, jScanEntries                      atomic.Int64
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// timedStore is the server.Store the traced run hands the primary's
// server: server.NewDurableStore with a span around each call.
type timedStore struct {
	inner server.Store[string, []byte]
	tr    *tracer
}

func (s timedStore) Get(key string) ([]byte, bool) {
	if !s.tr.active() {
		return s.inner.Get(key)
	}
	start := time.Now()
	v, ok := s.inner.Get(key)
	s.tr.durGet.add(time.Since(start))
	return v, ok
}

func (s timedStore) Put(key string, val []byte, tc *trace.Ctx) (int64, error) {
	if !s.tr.active() {
		return s.inner.Put(key, val, tc)
	}
	start := time.Now()
	ver, err := s.inner.Put(key, val, tc)
	s.tr.durPut.add(time.Since(start))
	return ver, err
}

func (s timedStore) Remove(key string, tc *trace.Ctx) (int64, bool, error) {
	return s.inner.Remove(key, tc)
}

func (s timedStore) BatchUpdate(b *jiffy.Batch[string, []byte], tc *trace.Ctx) (int64, error) {
	if !s.tr.active() {
		return s.inner.BatchUpdate(b, tc)
	}
	start := time.Now()
	ver, err := s.inner.BatchUpdate(b, tc)
	s.tr.durBatch.add(time.Since(start))
	return ver, err
}

func (s timedStore) Snapshot() server.Snap[string, []byte] {
	if !s.tr.active() {
		return s.inner.Snapshot()
	}
	start := time.Now()
	sn := s.inner.Snapshot()
	s.tr.durSnapshot.add(time.Since(start))
	return timedSnap{Snap: sn, tr: s.tr}
}

// timedSnap times the iterators the server pulls scan pages through.
type timedSnap struct {
	server.Snap[string, []byte]
	tr *tracer
}

func (s timedSnap) Iter() jiffy.Iterator[string, []byte] {
	start := time.Now()
	it := &timedIter{Iterator: s.Snap.Iter(), tr: s.tr}
	it.ns = int64(time.Since(start))
	return it
}

// timedIter times the iterator's own calls (creation, Seek, Next,
// Close), not the server's encoding between them, and counts the entries
// pulled; it adds both to the tracer at Close.
type timedIter struct {
	jiffy.Iterator[string, []byte]
	tr *tracer
	ns int64
	n  int64
}

func (it *timedIter) Seek(key string) {
	start := time.Now()
	it.Iterator.Seek(key)
	it.ns += int64(time.Since(start))
}

func (it *timedIter) Next() bool {
	start := time.Now()
	ok := it.Iterator.Next()
	it.ns += int64(time.Since(start))
	if ok {
		it.n++
	}
	return ok
}

func (it *timedIter) Close() {
	start := time.Now()
	it.Iterator.Close()
	it.tr.iterNs.Add(it.ns + int64(time.Since(start)))
	it.tr.iterEntries.Add(it.n)
}

// timedReplica is the repl.ReplicaStore the traced run hands the runner:
// the replica store with a span around each applied record.
type timedReplica struct {
	*durable.Replica[string, []byte]
	tr *tracer
}

func (r timedReplica) ApplyRecord(ver int64, payload []byte) error {
	if !r.tr.active() {
		return r.Replica.ApplyRecord(ver, payload)
	}
	start := time.Now()
	err := r.Replica.ApplyRecord(ver, payload)
	r.tr.replApply.add(time.Since(start))
	return err
}
