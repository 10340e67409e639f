package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/jiffy"
	"repro/jiffy/client"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for store files
}

// The workloads' fixed sizes. numKeys keeps the primary and replica,
// with the garbage the Go heap carries between collections, near 1 GB of
// RSS under kv-ingest, on a box shared with other jobs; at 250k keys
// kv-ingest peaked at 1.9 GB, and at a million kv-read alone at 1.6 GB.
// setupReps set-ups per untraced run give setup_s as a median.
const (
	numKeys   = 100_000
	setupReps = 7
)

// loadWorkers is the closed loop's concurrency: one load goroutine per
// core, two on the reference box, sharing the cores with the program.
func loadWorkers() int { return runtime.GOMAXPROCS(0) }

func (c config) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup runs the mix before anything is measured, so caches, pools and
// the heap reach their steady size.
func (c config) warmup() time.Duration { return min(2*time.Second, c.measure()/5) }

// metric is one reported number. N is the sample count behind a timing.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     uint64  `json:"n,omitempty"`
}

// result is everything one run reports.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      int               `json:"trace"`
	Env        map[string]string `json:"env"`
	Correct    bool              `json:"correct"`
	Attempted  uint64            `json:"attempted"`
	Failed     uint64            `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Violations []string          `json:"violations,omitempty"`
	Notes      map[string]string `json:"notes,omitempty"` // why a metric reads 0
	FirstError string            `json:"first_error,omitempty"`
}

func (r *result) set(name string, v float64, n uint64) {
	d, ok := findDef(name)
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: d.Unit, N: n}
}

// note records why a metric could not be measured.
func (r *result) note(name, why string) {
	if r.Notes == nil {
		r.Notes = map[string]string{}
	}
	r.Notes[name] = why
}

var workloads = map[string]func(config, []string, *result) error{
	"kv-read":   func(c config, k []string, r *result) error { return runKV(c, k, false, r) },
	"kv-ingest": func(c config, k []string, r *result) error { return runKV(c, k, true, r) },
	"lib-scan":  runLib,
}

// run executes one configured run. Correctness violations land in the
// result; an error means the run could not be carried out.
func run(cfg config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Trace: btoi(cfg.trace),
		Env: environment(cfg), Metrics: map[string]metric{},
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	keys := makeKeys(numKeys)
	if err := fn(cfg, keys, res); err != nil {
		return nil, err
	}
	res.Correct = len(res.Violations) == 0
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// freeMemory returns the heap of a discarded set-up to the OS, so the
// next one starts from the same footing and the peak RSS stays one
// stack's.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func newWorkers(dist workload.Distribution, nkeys int, seed int64, vio *violations) []*worker {
	ws := make([]*worker, loadWorkers())
	for i := range ws {
		ws[i] = newWorker(i, dist, nkeys, seed, vio)
	}
	return ws
}

func collect(res *result, ws []*worker, vio *violations) {
	for _, w := range ws {
		if w.firstErr != nil && res.FirstError == "" {
			res.FirstError = w.firstErr.Error()
		}
	}
	vio.mu.Lock()
	res.Violations = append(res.Violations, vio.msgs...)
	if extra := vio.n - len(vio.msgs); extra > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("... and %d more", extra))
	}
	vio.mu.Unlock()
}

// subWindows is how many equal parts the measured time is cut into. Each
// timing metric is the median of its per-part values, so a disturbance
// from outside the program (a neighbour on the host, a stall of the
// shared disk) that spoils one part does not move the result.
const subWindows = 10

// measureE2E runs the measured time as subWindows windows.
func measureE2E(cfg config, ws []*worker, step func(*worker)) []*window {
	out := make([]*window, subWindows)
	for i := range out {
		out[i] = runWindow(ws, cfg.measure()/subWindows, step)
	}
	return out
}

// e2eMetrics fills the end-to-end metrics from untraced windows: each
// one the median over the windows, with the total sample count.
func e2eMetrics(res *result, wins []*window, setups []float64) {
	var total window
	for _, w := range wins {
		total.add(w)
	}
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Env["host_steal_frac"] = strconv.FormatFloat(ratio(total.steal, total.hostTicks), 'f', 3, 64)
	med := func(f func(w *window) float64) float64 {
		v := make([]float64, len(wins))
		for i, w := range wins {
			v[i] = f(w)
		}
		return median(v)
	}
	res.set("setup_s", median(setups), uint64(len(setups)))
	res.set("req_per_s", med(func(w *window) float64 { return float64(w.completed()) / w.secs }), total.completed())
	res.set("cpu_us_per_req", med(func(w *window) float64 { return 1e6 * w.cpuSecs / float64(max(w.completed(), 1)) }), total.completed())
	quantiles := func(name string, hist func(w *window) *Hist, n uint64) {
		res.set(name+"_p50_us", med(func(w *window) float64 { return hist(w).QuantileNs(0.5) / 1e3 }), n)
		res.set(name+"_p99_us", med(func(w *window) float64 {
			h := hist(w)
			return h.QuantileNs(TailQ(h.Count())) / 1e3
		}), n)
	}
	for op := range total.hist {
		if n := total.hist[op].Count(); n > 0 {
			quantiles(opNames[op], func(w *window) *Hist { return &w.hist[op] }, n)
		}
	}
	// A workload issues puts or batches, never both: that one is "write".
	write := opPut
	if total.hist[opBatch].Count() > 0 {
		write = opBatch
	}
	quantiles("write", func(w *window) *Hist { return &w.hist[write] }, total.hist[write].Count())
	res.set("fail_frac", float64(total.failed)/float64(max(total.attempted, 1)), total.attempted)
	res.set("max_rss_mb", maxRSSMB(), 0)
}

// tracedRun alternates untraced and traced slices of the measured time,
// so both halves see the same stack state: the untraced slices give the
// counters and the reference rate, the traced slices the spans. onSlice
// is told when each slice starts and ends.
func tracedRun(cfg config, ws []*worker, step func(*worker), tr *tracer, st *kvStack, onSlice func(traced, starting bool)) (uw, tw *window, up probe) {
	const slices = 4
	uw, tw = &window{}, &window{}
	for i := 0; i < slices; i++ {
		traced := i%2 == 1
		tr.on.Store(traced)
		onSlice(traced, true)
		p0 := readProbe(st)
		w := runWindow(ws, cfg.measure()/slices, step)
		p1 := readProbe(st)
		onSlice(traced, false)
		if traced {
			tw.add(w)
		} else {
			uw.add(w)
			up = up.add(p1.since(p0))
		}
	}
	tr.on.Store(false)
	return uw, tw, up
}

func perReq(v float64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// commonLayers fills the metrics every workload measures: runtime,
// syscalls, the index structure and the tracing overhead.
func commonLayers(res *result, uw, tw *window, up probe, st jiffy.Stats) {
	res.Attempted, res.Failed = uw.attempted+tw.attempted, uw.failed+tw.failed
	res.Env["host_steal_frac"] = strconv.FormatFloat(ratio(uw.steal+tw.steal, uw.hostTicks+tw.hostTicks), 'f', 3, 64)
	n := uw.completed()
	res.set("proc.syscr_per_req", perReq(up.syscr, n), n)
	res.set("proc.syscw_per_req", perReq(up.syscw, n), n)
	res.set("runtime.allocs_per_req", perReq(up.mallocs, n), n)
	res.set("runtime.gc_cpu_frac", ratio(up.gcCPU, up.totalCPU), 0)
	res.set("runtime.gc_per_s", up.gcs/uw.secs, uint64(up.gcs))
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(heap)
	res.set("runtime.heap_mb", sampleValue(heap[0])/(1<<20), 0)
	urps := float64(uw.completed()) / uw.secs
	trps := float64(tw.completed()) / tw.secs
	res.set("bench.trace_overhead_pct", 100*ratio(urps-trps, urps), tw.completed())

	res.set("core.avg_revision_size", st.AvgRevisionSize, 0)
	res.set("core.max_revision_list", float64(st.MaxRevisionList), 0)
	res.set("core.pool_hit_frac", ratio(float64(st.PoolHits), float64(st.PoolHits+st.PoolMisses)), st.PoolHits+st.PoolMisses)
	res.set("core.seek_steps_per_sample", ratio(float64(st.SeekSteps), float64(st.SeekSamples)), st.SeekSamples)
	if st.SeekSamples == 0 {
		res.note("core.seek_steps_per_sample", "the core samples only snapshot point reads, which this workload does not issue")
	}
	res.set("core.index_levels", float64(st.IndexLevels), 0)
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.set(d.Name, 0, 0)
			res.note(d.Name, "layer not exercised by "+res.Workload)
		}
	}
}

// runKV runs kv-read or kv-ingest against the network stack.
func runKV(cfg config, keys []string, ingest bool, res *result) (err error) {
	var tr *tracer
	reps := setupReps
	if cfg.trace {
		tr, reps = &tracer{}, 1
	}
	var setups []float64
	var st *kvStack
	defer func() {
		if st != nil {
			err = errors.Join(err, st.close())
		}
	}()
	for i := 0; i < reps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
			st = nil
			freeMemory()
		}
		start := time.Now()
		st, err = openKV(filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, os.Getpid(), i)), tr)
		if err != nil {
			return err
		}
		if err := st.attachReplica(tr); err != nil {
			return err
		}
		ver, err := st.prefill(keys, kvGroup)
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		if err := st.waitReplica(ver, 2*time.Minute); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.Env["serve_mode"] = st.srv.Mode().String()

	c, err := client.Dial(st.srv.Addr().String(), codec, client.Options{Conns: 2})
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer c.Close()
	vio := &violations{}
	dist := workload.Zipf
	load := &kvLoad{c: c, keys: keys, tr: tr}
	step := load.readStep
	if ingest {
		dist, step = workload.Uniform, load.ingestStep
	}
	ws := newWorkers(dist, len(keys)-1, cfg.seed, vio)
	runWindow(ws, cfg.warmup(), step)

	if !cfg.trace {
		e2eMetrics(res, measureE2E(cfg, ws, step), setups)
	} else {
		var lag Hist
		var stopLag chan struct{}
		var lagDone chan struct{}
		uw, tw, up := tracedRun(cfg, ws, step, tr, st, func(traced, starting bool) {
			switch {
			case traced && starting:
				stopLag, lagDone = make(chan struct{}), make(chan struct{})
				go func() {
					defer close(lagDone)
					sampleLag(stopLag, c.Floor, st.replica.Watermark, &lag)
				}()
			case traced:
				close(stopLag)
				<-lagDone
			}
		})
		kvLayers(res, tr, uw, up, st, &lag)
		commonLayers(res, uw, tw, up, st.primary.Stats())
	}
	collect(res, ws, vio)
	group := 0
	if ingest {
		group = kvGroup
	}
	if err := st.verify(len(keys)-1, group, c.Floor()); err != nil {
		res.Violations = append(res.Violations, err.Error())
	}
	return nil
}

// sampleLag measures replication lag: every millisecond it notes the
// newest acknowledged commit version, if new, with the time, and records
// for each noted version how long the replica's watermark took to reach
// it.
func sampleLag(stop <-chan struct{}, acked, watermark func() int64, h *Hist) {
	type mark struct {
		ver int64
		at  time.Time
	}
	var pending []mark
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		if v := acked(); len(pending) == 0 || v > pending[len(pending)-1].ver {
			pending = append(pending, mark{v, now})
		}
		wm := watermark()
		i := 0
		for ; i < len(pending) && pending[i].ver <= wm; i++ {
			h.Record(now.Sub(pending[i].at))
		}
		pending = append(pending[:0], pending[i:]...)
	}
}

// kvLayers fills the network stack's per-layer metrics.
func kvLayers(res *result, tr *tracer, uw *window, up probe, st *kvStack, lag *Hist) {
	res.set("client.get_us", tr.clientGet.meanUs(), uint64(tr.clientGet.n.Load()))
	res.set("client.put_us", tr.clientPut.meanUs(), uint64(tr.clientPut.n.Load()))
	res.set("client.batch_us", tr.clientBatch.meanUs(), uint64(tr.clientBatch.n.Load()))
	res.set("client.snap_open_us", tr.clientSnapOpen.meanUs(), uint64(tr.clientSnapOpen.n.Load()))
	res.set("client.scan_us", tr.clientScan.meanUs(), uint64(tr.clientScan.n.Load()))
	res.set("client.snap_close_us", tr.clientSnapClose.meanUs(), uint64(tr.clientSnapClose.n.Load()))

	res.set("durable.get_us", tr.durGet.meanUs(), uint64(tr.durGet.n.Load()))
	res.set("durable.put_us", tr.durPut.meanUs(), uint64(tr.durPut.n.Load()))
	res.set("durable.batch_us", tr.durBatch.meanUs(), uint64(tr.durBatch.n.Load()))
	res.set("durable.snapshot_us", tr.durSnapshot.meanUs(), uint64(tr.durSnapshot.n.Load()))
	res.set("durable.iter_entry_ns", ratio(float64(tr.iterNs.Load()), float64(tr.iterEntries.Load())), uint64(tr.iterEntries.Load()))

	// Server self time: the client's span minus the durable store's, per
	// request of that type.
	self := func(c, d *span) float64 {
		if c.n.Load() == 0 {
			return 0
		}
		return c.meanUs() - d.meanUs()
	}
	res.set("server.self_us.get", self(&tr.clientGet, &tr.durGet), uint64(tr.clientGet.n.Load()))
	res.set("server.self_us.put", self(&tr.clientPut, &tr.durPut), uint64(tr.clientPut.n.Load()))
	res.set("server.self_us.batch", self(&tr.clientBatch, &tr.durBatch), uint64(tr.clientBatch.n.Load()))
	scans := tr.clientSnapOpen.n.Load()
	scanSelf := float64(tr.clientSnapOpen.ns.Load()+tr.clientScan.ns.Load()+tr.clientSnapClose.ns.Load()-
		tr.durSnapshot.ns.Load()-tr.iterNs.Load()) / 1e3
	res.set("server.self_us.scan", ratio(scanSelf, float64(scans)), uint64(scans))
	res.set("server.scan_fetch_ratio", ratio(float64(tr.iterEntries.Load()), float64(tr.clientEntries.Load())), uint64(tr.clientEntries.Load()))

	n := uw.completed()
	res.set("persist.flushes_per_req", perReq(up.flushes, n), n)
	res.set("persist.records_per_flush", ratio(up.appends, up.flushes), uint64(up.flushes))
	bounds := obs.LatencyBuckets
	res.set("persist.fsync_p50_us", bucketQuantile(bounds, up.fsync, 0.5)*1e6, uint64(up.flushes))
	res.set("persist.fsync_p99_us", bucketQuantile(bounds, up.fsync, 0.99)*1e6, uint64(up.flushes))
	if noSync {
		res.note("persist.fsync_p50_us", "the logs run without fsync (see noSync)")
		res.note("persist.fsync_p99_us", "the logs run without fsync (see noSync)")
	}
	res.set("persist.wal_bytes_per_user_byte", ratio(up.walBytes, float64(uw.userBytes)), uw.userBytes)

	res.set("repl.apply_us", tr.replApply.meanUs(), uint64(tr.replApply.n.Load()))
	res.set("repl.records_applied_per_s", up.applied/uw.secs, uint64(up.applied))
	res.set("repl.lag_p50_ms", lag.QuantileNs(0.5)/1e6, lag.Count())
	res.set("repl.lag_p99_ms", lag.QuantileNs(TailQ(lag.Count()))/1e6, lag.Count())
	if lag.QuantileNs(0.5) == 0 {
		res.note("repl.lag_p50_ms", "most acknowledged writes reached the replica within the sampler's 1 ms polling tick")
	}
	// Session totals since the stack opened: the first connect counts.
	res.set("repl.resyncs", float64(st.srcMet.Resyncs.Value()), 0)
	res.set("repl.reconnects", float64(st.runMet.Reconnects.Value()), 0)
}

// verify checks the stack after the load: the replica converges on every
// acknowledged write, both sides hold exactly the key set with values
// written for their keys and (group > 0) untorn batches, and their
// full-scan digests agree.
func (st *kvStack) verify(nkeys, group int, acked int64) error {
	if err := st.waitReplica(acked, time.Minute); err != nil {
		return fmt.Errorf("replica did not converge: %w", err)
	}
	var chk scanCheck
	chk.reset(0, nkeys, group)
	pd := fullDigest(func(fn func(string, []byte) bool) {
		st.primary.All(func(k string, v []byte) bool { return chk.add(k, v) && fn(k, v) })
	})
	if err := chk.finish(); err != nil {
		return fmt.Errorf("primary full scan: %w", err)
	}
	chk.reset(0, nkeys, group)
	rd := fullDigest(func(fn func(string, []byte) bool) {
		st.replica.All(func(k string, v []byte) bool { return chk.add(k, v) && fn(k, v) })
	})
	if err := chk.finish(); err != nil {
		// Tell a store that lacks the entry from a scan that skipped it.
		_, found := st.replica.Get(keyName(chk.next))
		var again scanCheck
		again.reset(0, nkeys, group)
		st.replica.All(again.add)
		return fmt.Errorf("replica full scan: %w (point get of key %d finds it: %v; a second scan: %v; stream: %d bootstraps, %d catch-ups, %d resyncs, %d connects)",
			err, chk.next, found, again.finish(), st.srcMet.Bootstraps.Value(), st.srcMet.Catchups.Value(), st.srcMet.Resyncs.Value(), st.runMet.Reconnects.Value())
	}
	if pd != rd {
		return fmt.Errorf("replica digest %x over %d entries, primary %x over %d", rd.sum, rd.n, pd.sum, pd.n)
	}
	return nil
}

// runLib runs lib-scan against an embedded sharded map.
func runLib(cfg config, keys []string, res *result) error {
	var tr *tracer
	reps := setupReps
	if cfg.trace {
		tr, reps = &tracer{}, 1
	}
	nkeys := len(keys) - 1
	var setups []float64
	var m *jiffy.Sharded[string, []byte]
	for i := 0; i < reps; i++ {
		if m != nil {
			m = nil
			freeMemory()
		}
		start := time.Now()
		m = jiffy.NewSharded[string, []byte](runtime.GOMAXPROCS(0)) // jiffyd's shard default
		_, err := prefillBatches(keys, libGroup, func(b *jiffy.Batch[string, []byte], _ int) (int64, error) {
			return m.BatchUpdateVersioned(b), nil
		})
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.Env["serve_mode"] = "none (embedded)"

	vio := &violations{}
	load := &libLoad{m: m, keys: keys, tr: tr}
	ws := newWorkers(workload.Uniform, nkeys, cfg.seed, vio)
	runWindow(ws, cfg.warmup(), load.step)
	if !cfg.trace {
		e2eMetrics(res, measureE2E(cfg, ws, load.step), setups)
	} else {
		uw, tw, up := tracedRun(cfg, ws, load.step, tr, nil, func(bool, bool) {})
		res.set("jiffy.get_us", tr.jGet.meanUs(), uint64(tr.jGet.n.Load()))
		res.set("jiffy.batch_us.single_shard", tr.jBatchSingle.meanUs(), uint64(tr.jBatchSingle.n.Load()))
		if tr.jBatchSingle.n.Load() == 0 {
			res.note("jiffy.batch_us.single_shard", "no batch fell in one shard: consecutive keys hash to alternating shards")
		}
		res.set("jiffy.batch_us.cross_shard", tr.jBatchCross.meanUs(), uint64(tr.jBatchCross.n.Load()))
		batches := tr.jBatchSingle.n.Load() + tr.jBatchCross.n.Load()
		res.set("jiffy.cross_shard_frac", ratio(float64(tr.jBatchCross.n.Load()), float64(batches)), uint64(batches))
		res.set("jiffy.snapshot_us", tr.jSnapshot.meanUs(), uint64(tr.jSnapshot.n.Load()))
		res.set("jiffy.scan_entry_ns", ratio(float64(tr.jScanNs.Load()), float64(tr.jScanEntries.Load())), uint64(tr.jScanEntries.Load()))
		commonLayers(res, uw, tw, up, m.Stats())
	}
	collect(res, ws, vio)
	var chk scanCheck
	chk.reset(0, nkeys, libGroup)
	m.All(chk.add)
	if err := chk.finish(); err != nil {
		res.Violations = append(res.Violations, "final full scan: "+err.Error())
	}
	return nil
}
