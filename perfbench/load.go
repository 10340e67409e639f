package main

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"

	"repro/internal/workload"
	"repro/jiffy"
	"repro/jiffy/client"
)

// Request types, each with its own latency histogram.
const (
	opGet = iota
	opPut
	opBatch
	opScan
	numOps
)

var opNames = [numOps]string{"get", "put", "batch", "scan"}

// Workload shapes.
const (
	kvGroup    = 100 // kv-ingest batch: one aligned group of 100 keys
	kvScanLen  = 100 // kv-read snapshot scan length
	libGroup   = 10  // lib-scan batch: one aligned group of 10 keys
	libScanLen = 1000
)

// worker is one closed-loop load goroutine: it issues a request, waits
// for the reply, records it, and issues the next. Everything a request
// needs is allocated up front, so the requests' allocations are the
// program's.
type worker struct {
	id        int
	gen       *workload.KeyGen
	hist      [numOps]Hist
	attempted uint64
	failed    uint64
	userBytes uint64 // key and value bytes written
	seq       uint64
	check     scanCheck
	vio       *violations
	firstErr  error

	val     []byte                          // kv-read put value
	vals    [][]byte                        // kv-ingest batch values
	ops     []jiffy.BatchOp[string, []byte] // kv-ingest batch
	slab    []byte                          // lib-scan value template
	batch   *jiffy.Batch[string, []byte]    // lib-scan batch
	rangeFn func(string, []byte) bool       // lib-scan scan callback
}

func newWorker(id int, dist workload.Distribution, nkeys int, seed int64, vio *violations) *worker {
	w := &worker{
		id:  id,
		gen: workload.NewKeyGen(dist, uint64(nkeys), uint64(seed)<<8|uint64(id)),
		vio: vio,
		val: newValueBuf(),
		ops: make([]jiffy.BatchOp[string, []byte], kvGroup),
	}
	w.vals = make([][]byte, kvGroup)
	for i := range w.vals {
		w.vals[i] = newValueBuf()
	}
	for len(w.slab) < libGroup*valueBytes {
		w.slab = append(w.slab, newValueBuf()...)
	}
	w.batch = jiffy.NewBatch[string, []byte](libGroup)
	w.rangeFn = w.check.add
	return w
}

// stamp returns a stamp no other write of this run uses. Prefill stamps
// are group numbers, below 1<<48.
func (w *worker) stamp() uint64 {
	w.seq++
	return uint64(w.id+1)<<48 | w.seq
}

// fail counts a request that returned an error. It is not a correctness
// violation, but it misses every latency limit: it is left out of the
// histograms and counted against the attempts.
func (w *worker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// window is the merged outcome of one measured interval.
type window struct {
	hist      [numOps]Hist
	attempted uint64
	failed    uint64
	userBytes uint64
	secs      float64
	cpuSecs   float64 // process CPU time, every layer and the load generator
	steal     float64 // host CPU ticks stolen from the VM, of hostTicks
	hostTicks float64
}

func (w *window) add(o *window) {
	for i := range w.hist {
		w.hist[i].Merge(&o.hist[i])
	}
	w.attempted += o.attempted
	w.failed += o.failed
	w.userBytes += o.userBytes
	w.secs += o.secs
	w.cpuSecs += o.cpuSecs
	w.steal += o.steal
	w.hostTicks += o.hostTicks
}

func (w *window) completed() uint64 { return w.attempted - w.failed }

// runWindow runs step on every worker, each on its own goroutine, until d
// has passed, and merges what they recorded.
func runWindow(workers []*worker, d time.Duration, step func(w *worker)) *window {
	for _, w := range workers {
		w.hist = [numOps]Hist{}
		w.attempted, w.failed, w.userBytes = 0, 0, 0
	}
	cpu0 := processCPU()
	steal0, ticks0 := hostStolen()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				step(w)
			}
		}(w)
	}
	wg.Wait()
	out := &window{secs: time.Since(start).Seconds(), cpuSecs: processCPU() - cpu0}
	steal1, ticks1 := hostStolen()
	out.steal, out.hostTicks = steal1-steal0, ticks1-ticks0
	for _, w := range workers {
		out.add(&window{hist: w.hist, attempted: w.attempted, failed: w.failed, userBytes: w.userBytes})
	}
	return out
}

// processCPU returns the user and system CPU time the process has used.
// Time the host steals from the VM is not in it, so CPU per request holds
// steady where wall-clock rates follow the neighbours' load.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// kvLoad drives the network stack through one shared client.
type kvLoad struct {
	c    *client.Client[string, []byte]
	keys []string // keys[len-1] is one past the last key
	tr   *tracer
}

func (l *kvLoad) n() int { return len(l.keys) - 1 }

// readStep is one kv-read request: 90% Get, 8% Put, 2% snapshot scan of
// kvScanLen entries, keys Zipf-distributed.
func (l *kvLoad) readStep(w *worker) {
	r := w.gen.IntN(100)
	k := int(w.gen.Next())
	switch {
	case r < 90:
		l.get(w, k)
	case r < 98:
		l.put(w, k)
	default:
		l.scan(w, k)
	}
}

func (l *kvLoad) get(w *worker, k int) {
	w.attempted++
	key := l.keys[k]
	start := time.Now()
	v, ok, err := l.c.Get(key)
	d := time.Since(start)
	if err != nil {
		w.fail(err)
		return
	}
	w.hist[opGet].Record(d)
	if l.tr.active() {
		l.tr.clientGet.add(d)
	}
	if !ok || !valueFor(key, v) {
		w.vio.add(fmt.Errorf("get %s: found=%v value %q", key, ok, v))
	}
}

func (l *kvLoad) put(w *worker, k int) {
	w.attempted++
	key := l.keys[k]
	fillValue(w.val, key, w.stamp())
	start := time.Now()
	err := l.c.Put(key, w.val)
	d := time.Since(start)
	if err != nil {
		w.fail(err)
		return
	}
	w.hist[opPut].Record(d)
	w.userBytes += uint64(len(key) + len(w.val))
	if l.tr.active() {
		l.tr.clientPut.add(d)
	}
}

func (l *kvLoad) scan(w *worker, lo int) {
	w.attempted++
	hi := min(lo+kvScanLen, l.n())
	t0 := time.Now()
	s, err := l.c.Snapshot()
	if err != nil {
		w.fail(err)
		return
	}
	t1 := time.Now()
	w.check.reset(lo, hi, 0)
	sc := s.Scan(l.keys[lo])
	n := 0
	for n < kvScanLen && sc.Next() && w.check.add(sc.Key(), sc.Value()) {
		n++
	}
	serr := sc.Err()
	sc.Close()
	t2 := time.Now()
	cerr := s.Close()
	t3 := time.Now()
	if err := errors.Join(serr, cerr); err != nil {
		w.fail(err)
		return
	}
	w.hist[opScan].Record(t3.Sub(t0))
	if l.tr.active() {
		l.tr.clientSnapOpen.add(t1.Sub(t0))
		l.tr.clientScan.add(t2.Sub(t1))
		l.tr.clientSnapClose.add(t3.Sub(t2))
		l.tr.clientEntries.Add(int64(n))
	}
	if err := w.check.finish(); err != nil {
		w.vio.add(err)
	}
}

// ingestStep is one kv-ingest request: a BatchUpdate of one uniformly
// chosen aligned group of kvGroup consecutive keys, all stamped alike.
func (l *kvLoad) ingestStep(w *worker) {
	w.attempted++
	g := w.gen.IntN(l.n() / kvGroup)
	stamp := w.stamp()
	for i := range w.ops {
		key := l.keys[g*kvGroup+i]
		fillValue(w.vals[i], key, stamp)
		w.ops[i] = jiffy.BatchOp[string, []byte]{Key: key, Val: w.vals[i]}
	}
	start := time.Now()
	err := l.c.BatchUpdate(w.ops)
	d := time.Since(start)
	if err != nil {
		w.fail(err)
		return
	}
	w.hist[opBatch].Record(d)
	w.userBytes += kvGroup * (keyBytes + valueBytes)
	if l.tr.active() {
		l.tr.clientBatch.add(d)
	}
}

// libLoad drives an embedded jiffy.Sharded map directly.
type libLoad struct {
	m    *jiffy.Sharded[string, []byte]
	keys []string
	tr   *tracer
}

func (l *libLoad) n() int { return len(l.keys) - 1 }

// step is one lib-scan operation: 50% Get, 25% BatchUpdate of one aligned
// group of libGroup keys, 25% snapshot Range over libScanLen entries
// starting at a group boundary; keys uniform.
func (l *libLoad) step(w *worker) {
	w.attempted++
	r := w.gen.IntN(4)
	switch {
	case r < 2:
		key := l.keys[w.gen.Next()]
		start := time.Now()
		v, ok := l.m.Get(key)
		d := time.Since(start)
		w.hist[opGet].Record(d)
		if l.tr.active() {
			l.tr.jGet.add(d)
		}
		if !ok || !valueFor(key, v) {
			w.vio.add(fmt.Errorf("get %s: found=%v value %q", key, ok, v))
		}
	case r < 3:
		g := w.gen.IntN(l.n() / libGroup)
		stamp := w.stamp()
		// The map keeps the value slices, so each batch needs fresh ones:
		// one slab per batch, copied from the worker's template.
		vals := append([]byte(nil), w.slab...)
		w.batch.Reset()
		for i := 0; i < libGroup; i++ {
			key := l.keys[g*libGroup+i]
			v := vals[i*valueBytes : (i+1)*valueBytes : (i+1)*valueBytes]
			fillValue(v, key, stamp)
			w.batch.Put(key, v)
		}
		start := time.Now()
		l.m.BatchUpdate(w.batch)
		d := time.Since(start)
		w.hist[opBatch].Record(d)
		w.userBytes += libGroup * (keyBytes + valueBytes)
		if l.tr.active() {
			l.recordBatch(g, d)
		}
	default:
		lo := w.gen.IntN(l.n()/libGroup-libScanLen/libGroup+1) * libGroup
		hi := lo + libScanLen
		w.check.reset(lo, hi, libGroup)
		start := time.Now()
		s := l.m.Snapshot()
		t1 := time.Now()
		s.Range(l.keys[lo], l.keys[hi], w.rangeFn)
		t2 := time.Now()
		s.Close()
		w.hist[opScan].Record(time.Since(start))
		if l.tr.active() {
			l.tr.jSnapshot.add(t1.Sub(start))
			l.tr.jScanNs.Add(int64(t2.Sub(t1)))
			l.tr.jScanEntries.Add(int64(w.check.next - lo))
		}
		if err := w.check.finish(); err != nil {
			w.vio.add(err)
		}
	}
}

// recordBatch files a batch's span as single- or cross-shard.
func (l *libLoad) recordBatch(g int, d time.Duration) {
	first := l.m.ShardOf(l.keys[g*libGroup])
	for i := 1; i < libGroup; i++ {
		if l.m.ShardOf(l.keys[g*libGroup+i]) != first {
			l.tr.jBatchCross.add(d)
			return
		}
	}
	l.tr.jBatchSingle.add(d)
}
