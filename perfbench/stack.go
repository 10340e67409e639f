package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/jiffy"
	"repro/jiffy/durable"
)

var codec = durable.Codec[string, []byte]{Key: durable.StringEnc(), Value: durable.BytesEnc()}

// noSync is the flush policy of both logs: every record is written to
// the OS but not fsynced. On the reference box the shared disk's fsync
// latency (p50 about 0.5ms, p99 several ms, drifting run to run) set the
// pace of every write and spread req_per_s by 45% between runs; without
// fsync the WAL path's own work is measured and the media's is not.
const noSync = true

// kvStack is an in-process copy of the deployed primary+replica pair,
// wired from the constructors cmd/jiffyd uses: a durable sharded primary
// (strict clock, WAL metrics, flight recorder; no fsync, see noSync) behind
// server.Serve, a replication source, and one asynchronous durable replica
// with its runner and its own read-only server. Each side has its own
// registry and recorder, as two jiffyd processes would.
type kvStack struct {
	dir string

	reg     *obs.Registry
	pmet    *persist.Metrics
	srcMet  *repl.Metrics
	primary *durable.Sharded[string, []byte]
	src     *repl.Source[string, []byte]
	srcDone chan struct{}
	srcAddr string
	srv     *server.Server[string, []byte]

	runMet  *repl.Metrics
	replica *durable.Replica[string, []byte]
	runner  *repl.Runner[string, []byte]
	rsrv    *server.Server[string, []byte]
}

// openKV brings the primary side of the stack up empty. With tr non-nil
// the primary's server store carries the traced run's spans.
func openKV(dir string, tr *tracer) (st *kvStack, err error) {
	st = &kvStack{dir: dir}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	shards := runtime.GOMAXPROCS(0) // jiffyd's -shards default

	st.reg = obs.NewRegistry()
	rec := trace.NewRecorder(0)
	rec.RegisterMetrics(st.reg)
	st.pmet = persist.NewMetrics(st.reg)
	st.srcMet = repl.RegisterMetrics(st.reg)
	st.primary, err = durable.OpenSharded(filepath.Join(dir, "primary"), shards, codec, durable.Options[string]{
		Metrics: st.pmet, Tracer: rec, StrictClock: true, NoSync: noSync,
	})
	if err != nil {
		return st, fmt.Errorf("open primary: %w", err)
	}
	// The source taps the store before the first write, as in jiffyd.
	st.src = repl.NewSource[string, []byte](st.primary, codec, repl.SourceOptions{Metrics: st.srcMet, Tracer: rec})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, fmt.Errorf("listen for replication: %w", err)
	}
	st.srcDone = make(chan struct{})
	st.srcAddr = rln.Addr().String()
	go func() {
		defer close(st.srcDone)
		st.src.Serve(rln)
	}()

	var store server.Store[string, []byte] = server.NewDurableStore(st.primary)
	if tr != nil {
		store = timedStore{inner: store, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, fmt.Errorf("listen: %w", err)
	}
	st.srv = server.Serve(ln, server.Store[string, []byte](server.NewSwitchableStore(store)), codec, server.Options{
		Registry: st.reg, Tracer: rec, Epoch: st.primary.Epoch,
	})
	return st, nil
}

// attachReplica opens the replica, starts its runner against the
// primary's stream and serves it read-only.
func (st *kvStack) attachReplica(tr *tracer) error {
	rreg := obs.NewRegistry()
	rrec := trace.NewRecorder(0)
	rrec.RegisterMetrics(rreg)
	st.runMet = repl.RegisterMetrics(rreg)
	var err error
	st.replica, err = durable.OpenReplica(filepath.Join(st.dir, "replica"), runtime.GOMAXPROCS(0), codec, durable.Options[string]{
		Metrics: persist.NewMetrics(rreg), Tracer: rrec, NoSync: noSync,
	})
	if err != nil {
		return fmt.Errorf("open replica: %w", err)
	}
	var rstore repl.ReplicaStore[string, []byte] = st.replica
	if tr != nil {
		rstore = timedReplica{Replica: st.replica, tr: tr}
	}
	st.runner = repl.NewRunner(rstore, codec, st.srcAddr, repl.RunnerOptions{Metrics: st.runMet, Tracer: rrec})
	st.runner.Start()
	rsln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen for replica: %w", err)
	}
	st.rsrv = server.Serve(rsln, server.Store[string, []byte](server.NewSwitchableStore(server.NewReplicaStore(st.replica))), codec, server.Options{
		Registry: rreg, Tracer: rrec, ReadOnly: true, Watermark: st.replica.Watermark, Epoch: st.replica.Epoch,
	})
	return nil
}

// prefill writes keys [0, len(keys)-1) straight into the primary in
// batches of whole aligned groups, each group stamped with its own
// number, and returns the highest commit version. Every paceChunks
// batches a writer waits for the replica to apply what it wrote, so the
// replica follows the load on the live stream instead of falling past
// the source's ring and being severed. The resume after a severing is a
// disk catch-up, and disk catch-ups lose records: the replica's
// watermark passes whole batches it never applied (a replica attached to
// a primary holding a million-key prefill applied its first nine batches
// of a thousand). The set-up must leave both sides holding the full key
// set.
func (st *kvStack) prefill(keys []string, group int) (int64, error) {
	const paceChunks = 8
	return prefillBatches(keys, group, func(b *jiffy.Batch[string, []byte], lo int) (int64, error) {
		ver, err := st.primary.BatchUpdateV(b)
		if err == nil && (lo/prefillChunk)%paceChunks == 0 {
			err = st.waitReplica(ver, time.Minute)
		}
		return ver, err
	})
}

// prefillChunk is how many keys one prefill batch writes.
const prefillChunk = 1000

// prefillBatches writes keys [0, len(keys)-1) in batches of prefillChunk
// keys, whole aligned groups stamped with their group number, from
// GOMAXPROCS goroutines: it builds each batch and hands it to apply, and
// returns the highest version apply reports. Each batch's values are a
// fresh slab, since the store keeps the slices.
func prefillBatches(keys []string, group int, apply func(b *jiffy.Batch[string, []byte], lo int) (int64, error)) (int64, error) {
	n := len(keys) - 1
	chunk := prefillChunk / group * group
	template := make([]byte, 0, chunk*valueBytes)
	for len(template) < cap(template) {
		template = append(template, newValueBuf()...)
	}
	workers := runtime.GOMAXPROCS(0)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		maxVer  int64
		firstEr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * chunk; lo < n; lo += workers * chunk {
				hi := min(lo+chunk, n)
				vals := append([]byte(nil), template[:(hi-lo)*valueBytes]...)
				b := jiffy.NewBatch[string, []byte](hi - lo)
				for i := lo; i < hi; i++ {
					v := vals[(i-lo)*valueBytes : (i-lo+1)*valueBytes : (i-lo+1)*valueBytes]
					fillValue(v, keys[i], uint64(i/group))
					b.Put(keys[i], v)
				}
				ver, err := apply(b, lo)
				mu.Lock()
				maxVer = max(maxVer, ver)
				if err != nil && firstEr == nil {
					firstEr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return maxVer, firstEr
}

// waitReplica waits until the replica has applied every version up to
// ver.
func (st *kvStack) waitReplica(ver int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for st.replica.Watermark() < ver {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at watermark %d, want %d", st.replica.Watermark(), ver)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close stops every server, stream and store and removes the directory.
func (st *kvStack) close() error {
	var errs []error
	if st.srv != nil {
		errs = append(errs, st.srv.Close())
	}
	if st.rsrv != nil {
		errs = append(errs, st.rsrv.Close())
	}
	if st.runner != nil {
		st.runner.Stop()
	}
	if st.src != nil {
		errs = append(errs, st.src.Close())
		if st.srcDone != nil {
			<-st.srcDone
		}
	}
	if st.primary != nil {
		errs = append(errs, st.primary.Close())
	}
	if st.replica != nil {
		errs = append(errs, st.replica.Close())
	}
	errs = append(errs, os.RemoveAll(st.dir))
	return errors.Join(errs...)
}
