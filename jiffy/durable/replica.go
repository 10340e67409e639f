package durable

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/persist"
	"repro/internal/tsc"
	"repro/jiffy"
)

// ReplicaMarker is the file a replica-owned directory carries. It keeps an
// unpromoted replica's data from being opened as a primary by mistake
// (OpenSharded refuses marked directories); Promote removes it, after
// which the directory is an ordinary durable store.
const ReplicaMarker = "REPLICA"

var (
	// ErrNotPromoted is returned by a Replica's write methods before
	// Promote: a replica's state is the primary's, applied at the
	// primary's versions, and local writes would fork it.
	ErrNotPromoted = errors.New("durable: replica is read-only until promoted")

	// ErrPromoted is returned by a Replica's apply methods after Promote:
	// a promoted replica issues its own versions and must not apply a
	// stale primary's records on top.
	ErrPromoted = errors.New("durable: replica already promoted")
)

// replClock drives a replica's version clock through its two lives. While
// replicating it is a manual clock the apply path sets to each record's
// version just before committing it, so the replica's history carries the
// primary's exact version numbers and its watermark means the same thing
// on both ends. Promote swaps in a strict clock floored at the watermark,
// so locally issued versions continue the same total order — and a later
// replica of the promoted node inherits unique versions.
type replClock struct {
	manual tsc.Manual
	strict atomic.Pointer[tsc.Strict]
}

func (c *replClock) Read() int64 {
	if s := c.strict.Load(); s != nil {
		return s.Read()
	}
	return c.manual.Read()
}

func (c *replClock) ReadAtLeast(min int64) int64 {
	if s := c.strict.Load(); s != nil {
		return s.ReadAtLeast(min)
	}
	return c.manual.ReadAtLeast(min)
}

// Replica is the apply side of replication: a durable sharded map whose
// state is a replicated prefix of a primary's history. It serves the full
// read API (snapshots, scans, point gets) at its watermark — the version
// below which every primary update is applied and locally durable — and
// refuses writes until Promote turns it into a primary.
//
// The inner store sits behind an atomic pointer rather than being
// embedded: when the primary can no longer serve the replica's resume
// point (its log was truncated past it), the stream falls back to a
// checkpoint bootstrap, and BeginBootstrap wipes the directory and swaps
// in a fresh store. Readers holding snapshots of the old store keep them
// (the in-memory index survives its WALs' close) until they close.
type Replica[K cmp.Ordered, V any] struct {
	dir    string
	shards int
	codec  Codec[K, V]
	opts   Options[K]

	// mu serializes state transitions — record apply, bootstrap,
	// checkpoint, promote — against each other. Reads never take it.
	mu        sync.Mutex
	cur       atomic.Pointer[Sharded[K, V]]
	clk       *replClock
	elog      *epochLog
	watermark atomic.Int64
	promoted  atomic.Bool
	closed    atomic.Bool
	batch     *jiffy.Batch[K, V] // apply scratch, guarded by mu
}

// OpenReplica opens (creating if needed) the replica store in dir,
// recovering its pre-crash state at the primary's exact versions. The
// recovered watermark — Watermark() — is the resume point the replication
// runner hands the primary: unique versions (the primary commits on a
// strict clock) make "every record strictly above it" a gap-free,
// duplicate-free resume.
//
// A directory holding primary data (no marker) is refused unless empty:
// pointing a replica at an existing primary store would silently fork two
// version histories.
func OpenReplica[K cmp.Ordered, V any](dir string, shards int, codec Codec[K, V], opts ...Options[K]) (*Replica[K, V], error) {
	if shards < 1 {
		shards = 1
	}
	var o Options[K]
	if len(opts) > 0 {
		o = opts[0]
	}
	if err := codec.validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	marker := filepath.Join(dir, ReplicaMarker)
	if _, err := os.Stat(marker); err != nil {
		if !os.IsNotExist(err) {
			return nil, err
		}
		for _, pat := range []string{"wal-*", "ckpt-*"} {
			if m, _ := filepath.Glob(filepath.Join(dir, pat)); len(m) > 0 {
				return nil, fmt.Errorf("durable: %s holds primary data; refusing to open it as a replica", dir)
			}
		}
		if err := os.WriteFile(marker, []byte("replica store; do not open as a primary\n"), 0o644); err != nil {
			return nil, err
		}
	}
	d, clk, wm, err := openReplicaStore[K, V](dir, shards, codec, o)
	if err != nil {
		return nil, err
	}
	elog, err := loadEpochLog(dir)
	if err != nil {
		d.Close()
		return nil, err
	}
	r := &Replica[K, V]{
		dir:    dir,
		shards: shards,
		codec:  codec,
		opts:   o,
		clk:    clk,
		elog:   elog,
		batch:  jiffy.NewBatch[K, V](16),
	}
	r.cur.Store(d)
	r.watermark.Store(wm)
	return r, nil
}

// MarkReplica writes the replica marker into dir, demoting a primary
// store directory to a replica one: the next OpenReplica recovers its
// state at the primary's exact versions and resumes (or re-bootstraps,
// when its history diverged past a promote boundary) from the fleet's
// current primary. This is the rejoin step for a fenced ex-primary; its
// epoch history survives, so the new primary can judge exactly how much
// of its state is still common history.
func MarkReplica(dir string) error {
	marker := filepath.Join(dir, ReplicaMarker)
	if _, err := os.Stat(marker); err == nil {
		return nil
	}
	return os.WriteFile(marker, []byte("replica store; do not open as a primary\n"), 0o644)
}

// openReplicaStore is OpenSharded with replica recovery semantics: the
// store runs on a manual clock and every log record replays as its own
// batch committed at the record's own version, so the recovered state —
// and the watermark derived from it — carries the primary's version
// numbers exactly. (OpenSharded replays whole-tail batches at fresh local
// versions, which is fine for a primary but would corrupt a resume point.)
func openReplicaStore[K cmp.Ordered, V any](dir string, shards int, codec Codec[K, V], o Options[K]) (*Sharded[K, V], *replClock, int64, error) {
	ckVer, ckPath, err := persist.LatestCheckpoint(dir)
	if errors.Is(err, persist.ErrNoCheckpoint) {
		ckVer, ckPath = 0, ""
	} else if err != nil {
		return nil, nil, 0, err
	}
	if err := persist.RemoveStaleCheckpointTemps(dir); err != nil {
		return nil, nil, 0, err
	}
	nWALs := shards
	if existing, err := filepath.Glob(filepath.Join(dir, "wal-*")); err == nil {
		for _, p := range existing {
			var i int
			if _, err := fmt.Sscanf(filepath.Base(p), "wal-%d", &i); err == nil && i >= nWALs {
				nWALs = i + 1
			}
		}
	}
	wopts := persist.WALOptions{SegmentBytes: o.SegmentBytes, NoSync: o.NoSync, Metrics: o.Metrics}
	wals := make([]*persist.WAL, nWALs)
	var recs []persist.Record
	closeAll := func() {
		for _, w := range wals {
			if w != nil {
				w.Close()
			}
		}
	}
	for i := range wals {
		w, rs, err := persist.OpenWAL(shardWALDir(dir, i), wopts)
		if err != nil {
			closeAll()
			return nil, nil, 0, err
		}
		wals[i] = w
		recs = append(recs, rs...)
	}

	clk := &replClock{}
	clk.manual.Set(ckVer)
	so := o.Map
	so.Clock = clk
	s := jiffy.NewSharded[K, V](shards, so)

	// Checkpoint entries commit at the cut version itself: the manual
	// clock reads ckVer until the record replay advances it.
	if ckPath != "" {
		if err := loadCheckpoint(ckPath, codec, s.BatchUpdate); err != nil {
			closeAll()
			return nil, nil, 0, err
		}
	}
	tail := make([]persist.Record, 0, len(recs))
	for _, r := range recs {
		if r.Version > ckVer {
			tail = append(tail, r)
		}
	}
	sort.SliceStable(tail, func(i, j int) bool { return tail[i].Version < tail[j].Version })
	wm := ckVer
	b := jiffy.NewBatch[K, V](16)
	for _, rec := range tail {
		b.Reset()
		if err := decodeOps(rec.Payload, codec, b); err != nil {
			closeAll()
			return nil, nil, 0, err
		}
		clk.manual.Set(rec.Version)
		s.BatchUpdate(b)
		if rec.Version > wm {
			wm = rec.Version
		}
	}
	d := &Sharded[K, V]{s: s, wals: wals, codec: codec, dir: dir, opts: o, floor: wm}
	d.ckpt.recover(ckVer, ckPath)
	return d, clk, wm, nil
}

// Watermark reports the replica's applied watermark: every primary update
// with version <= it is applied and locally durable, and nothing above it
// is visible to readers' floors. Zero means never synced (a fresh or
// mid-bootstrap replica), and the server refuses floor-bearing reads.
func (r *Replica[K, V]) Watermark() int64 { return r.watermark.Load() }

// Promoted reports whether Promote has run.
func (r *Replica[K, V]) Promoted() bool { return r.promoted.Load() }

// ApplyRecord applies one primary log record — ver is its commit version,
// payload its operation list in the WAL record encoding — and appends the
// payload as received to the local log at the same version (it already is
// the record the local log would write). Records at or below the watermark
// (resume overlap) are skipped. The caller (internal/repl's runner) must
// apply records in ascending version order and only up to the primary's
// frontier; AdvanceTo then publishes the new watermark.
func (r *Replica[K, V]) ApplyRecord(ver int64, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	if r.promoted.Load() {
		return ErrPromoted
	}
	if ver <= r.watermark.Load() {
		return nil
	}
	d := r.cur.Load()
	b := r.batch.Reset()
	if err := decodeOps(payload, r.codec, b); err != nil {
		return err
	}
	ops := b.Ops()
	if len(ops) == 0 {
		return nil
	}
	// Set-then-commit pins the commit version to ver exactly: the manual
	// clock reads ver, and versions only ascend (the runner applies in
	// order), so no other read can interleave a larger value.
	r.clk.manual.Set(ver)
	d.s.BatchUpdate(b)
	wi := d.s.ShardOf(ops[0].Key)
	for _, op := range ops[1:] {
		if i := d.s.ShardOf(op.Key); i < wi {
			wi = i
		}
	}
	return d.wals[wi].Append(ver, payload)
}

// AdvanceTo raises the watermark to frontier — the primary's guarantee
// that every record at or below it has been delivered — and advances the
// clock with it so snapshots cut at the watermark even when the last
// applied record is older.
func (r *Replica[K, V]) AdvanceTo(frontier int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() || r.promoted.Load() {
		return
	}
	if frontier > r.watermark.Load() {
		r.clk.manual.Set(frontier)
		r.watermark.Store(frontier)
	}
}

// BeginBootstrap discards the replica's state ahead of a checkpoint
// bootstrap: the watermark drops to zero (reads are refused until the
// bootstrap completes), the directory is wiped — the marker survives —
// and a fresh empty store is swapped in. Snapshots of the old store
// remain readable until closed.
func (r *Replica[K, V]) BeginBootstrap() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	if r.promoted.Load() {
		return ErrPromoted
	}
	// Watermark first: if the wipe fails partway the replica claims
	// nothing rather than claiming state whose disk is half gone.
	r.watermark.Store(0)
	r.cur.Load().Close()
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Name() == ReplicaMarker || e.Name() == EpochFile {
			// The epoch history survives a bootstrap: the post-bootstrap
			// state is the primary's cut, and the adopted history entries
			// describe exactly that history.
			continue
		}
		if err := os.RemoveAll(filepath.Join(r.dir, e.Name())); err != nil {
			return err
		}
	}
	d, clk, _, err := openReplicaStore[K, V](r.dir, r.shards, r.codec, r.opts)
	if err != nil {
		return err
	}
	r.clk = clk
	r.cur.Store(d)
	return nil
}

// ApplyBootstrap applies one chunk of a checkpoint bootstrap: entries of
// the primary's consistent cut at version, committed at exactly that
// version. Chunks are not logged — FinishBootstrap makes the whole cut
// durable as a local checkpoint in one step.
func (r *Replica[K, V]) ApplyBootstrap(version int64, ops []jiffy.BatchOp[K, V]) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	if r.promoted.Load() {
		return ErrPromoted
	}
	if len(ops) == 0 {
		return nil
	}
	d := r.cur.Load()
	b := r.batch.Reset()
	for _, op := range ops {
		b.Add(op)
	}
	r.clk.manual.Set(version)
	d.s.BatchUpdate(b)
	return nil
}

// FinishBootstrap completes a bootstrap: the applied cut is checkpointed
// locally (crash before this point re-bootstraps from scratch; after it,
// recovery resumes from version), and the watermark becomes version.
func (r *Replica[K, V]) FinishBootstrap(version int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	if r.promoted.Load() {
		return ErrPromoted
	}
	d := r.cur.Load()
	r.clk.manual.Set(version)
	if _, err := d.Checkpoint(); err != nil {
		return err
	}
	r.watermark.Store(version)
	return nil
}

// Promote turns the replica into a primary: applies are refused from here
// on, the clock switches to a strict clock floored at the current version
// — locally issued versions continue the primary's total order, uniquely
// — and the marker file is removed so a restart opens the directory as an
// ordinary durable store. It returns the watermark the node promoted at.
// The caller (internal/repl's runner) must first apply every record it
// has buffered, acknowledged or not: synchronous acks mean anything the
// old primary acked to a client has reached this replica's buffer.
// Promote is idempotent. It bumps the fencing epoch by one; automatic
// failover uses PromoteAt to promote under a specific epoch instead.
func (r *Replica[K, V]) Promote() (int64, error) {
	return r.PromoteAt(r.elog.current() + 1)
}

// PromoteAt is Promote under an explicit fencing epoch: the promote
// boundary (the watermark) is recorded in the persisted epoch history
// BEFORE the node starts issuing versions, so any store that later
// compares histories can tell exactly where this node's writes depart
// from the old primary's. epoch must exceed the replica's current epoch.
// Idempotent once promoted (the epoch argument is then ignored).
func (r *Replica[K, V]) PromoteAt(epoch int64) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return 0, ErrClosed
	}
	wm := r.watermark.Load()
	if r.promoted.Load() {
		return wm, nil
	}
	if cur := r.elog.current(); epoch <= cur {
		return 0, fmt.Errorf("durable: promote epoch %d not above current epoch %d", epoch, cur)
	}
	// History first: a crash between the two steps leaves an unpromoted
	// replica claiming a high epoch — it rejoins as a replica and the
	// claim is harmless noise. The reverse order could leave a promoted
	// primary at a stale epoch: unfenceable split-brain.
	if err := r.elog.advance(epoch, wm); err != nil {
		return 0, err
	}
	r.clk.strict.Store(tsc.NewStrictAt(r.clk.manual.Read()))
	r.promoted.Store(true)
	if err := os.Remove(filepath.Join(r.dir, ReplicaMarker)); err != nil && !os.IsNotExist(err) {
		return wm, err
	}
	return wm, nil
}

// Epoch reports the replica's fencing epoch — the newest epoch it has
// adopted from a primary or promoted under (1: the implicit first
// epoch).
func (r *Replica[K, V]) Epoch() int64 { return r.elog.current() }

// EpochStart reports the version the current epoch began at.
func (r *Replica[K, V]) EpochStart() int64 { return r.elog.currentStart() }

// EpochBoundaryAbove reports the divergence bound for a peer at epoch e
// (see Sharded.EpochBoundaryAbove); meaningful once promoted and
// serving replicas of its own.
func (r *Replica[K, V]) EpochBoundaryAbove(e int64) int64 { return r.elog.boundaryAbove(e) }

// AdoptEpoch records the primary's (epoch, start) pair in the local
// epoch history. The replication runner calls it with every
// OpReplEpoch frame; an epoch at or below the current one is a no-op
// (reconnects re-announce), and adopting is refused after promotion —
// a promoted node only moves its epoch by promoting again.
func (r *Replica[K, V]) AdoptEpoch(epoch, start int64) error {
	if r.closed.Load() {
		return ErrClosed
	}
	if r.promoted.Load() {
		return ErrPromoted
	}
	if epoch <= r.elog.current() {
		return nil
	}
	return r.elog.advance(epoch, start)
}

// EpochHistory returns a copy of the persisted epoch history.
func (r *Replica[K, V]) EpochHistory() []EpochEntry { return r.elog.history() }

// NumShards returns the number of shards.
func (r *Replica[K, V]) NumShards() int { return r.cur.Load().NumShards() }

// Get returns the most recent replicated value stored for key.
func (r *Replica[K, V]) Get(key K) (V, bool) { return r.cur.Load().Get(key) }

// Len counts the entries visible in an ephemeral snapshot (O(n)).
func (r *Replica[K, V]) Len() int { return r.cur.Load().Len() }

// Snapshot registers and returns a consistent cross-shard snapshot of the
// replicated state; its version is at most the watermark.
func (r *Replica[K, V]) Snapshot() *jiffy.ShardedSnapshot[K, V] { return r.cur.Load().Snapshot() }

// Range calls fn for every entry with lo <= key < hi, in globally
// ascending key order, on an ephemeral snapshot, until fn returns false.
func (r *Replica[K, V]) Range(lo, hi K, fn func(key K, val V) bool) { r.cur.Load().Range(lo, hi, fn) }

// RangeFrom calls fn for every entry with key >= lo, ascending, on an
// ephemeral snapshot, until fn returns false.
func (r *Replica[K, V]) RangeFrom(lo K, fn func(key K, val V) bool) { r.cur.Load().RangeFrom(lo, fn) }

// All calls fn for every entry, ascending, on an ephemeral snapshot,
// until fn returns false.
func (r *Replica[K, V]) All(fn func(key K, val V) bool) { r.cur.Load().All(fn) }

// Iter returns a streaming iterator over a consistent snapshot taken at
// call time.
func (r *Replica[K, V]) Iter() jiffy.Iterator[K, V] { return r.cur.Load().Iter() }

// Stats reports aggregated structural diagnostics across all shards.
func (r *Replica[K, V]) Stats() jiffy.Stats { return r.cur.Load().Stats() }

// DurStats reports log and checkpoint state, with ReplWatermark set.
func (r *Replica[K, V]) DurStats() DurStats {
	st := r.cur.Load().DurStats()
	st.ReplWatermark = r.watermark.Load()
	return st
}

// Checkpoint writes one checkpoint of the replicated state and truncates
// the local logs below it. Serialized with the apply path so the cut
// always lands on a watermark, never between a record and its frontier.
func (r *Replica[K, V]) Checkpoint() (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return 0, ErrClosed
	}
	return r.cur.Load().Checkpoint()
}

// Put sets the value for key (promoted replicas only).
func (r *Replica[K, V]) Put(key K, val V) error {
	_, err := r.PutV(key, val)
	return err
}

// PutV is Put, reporting the commit version (promoted replicas only).
func (r *Replica[K, V]) PutV(key K, val V) (int64, error) {
	if !r.promoted.Load() {
		return 0, ErrNotPromoted
	}
	return r.cur.Load().PutV(key, val)
}

// Remove deletes key (promoted replicas only).
func (r *Replica[K, V]) Remove(key K) (bool, error) {
	_, ok, err := r.RemoveV(key)
	return ok, err
}

// RemoveV is Remove, reporting the commit version (promoted replicas
// only).
func (r *Replica[K, V]) RemoveV(key K) (int64, bool, error) {
	if !r.promoted.Load() {
		return 0, false, ErrNotPromoted
	}
	return r.cur.Load().RemoveV(key)
}

// BatchUpdate applies b atomically (promoted replicas only).
func (r *Replica[K, V]) BatchUpdate(b *jiffy.Batch[K, V]) error {
	_, err := r.BatchUpdateV(b)
	return err
}

// BatchUpdateV is BatchUpdate, reporting the commit version (promoted
// replicas only).
func (r *Replica[K, V]) BatchUpdateV(b *jiffy.Batch[K, V]) (int64, error) {
	if !r.promoted.Load() {
		return 0, ErrNotPromoted
	}
	return r.cur.Load().BatchUpdateV(b)
}

// SetFeed installs a replication tap on a promoted replica, letting it
// serve replicas of its own (see Sharded.SetFeed).
func (r *Replica[K, V]) SetFeed(f Feed) { r.cur.Load().SetFeed(f) }

// TailAbove streams the local log's records above version (see
// Sharded.TailAbove).
func (r *Replica[K, V]) TailAbove(version int64) ([]TailRecord, error) {
	return r.cur.Load().TailAbove(version)
}

// RecoveredVersion reports the version floor below which every update is
// already durable locally: the replicated watermark once the stream has
// applied records (each applied record is WAL-durable before the
// watermark advances past it), else the floor recovery established. A
// freshly promoted node hands this to its own replication tap, so the
// frontier it announces to clients and replicas starts at the history it
// actually holds rather than at the open-time floor (a replica that
// booted empty has floor 0 — announcing that would make rediscovering
// clients refuse the new primary as behind their acked writes).
func (r *Replica[K, V]) RecoveredVersion() int64 {
	if wm := r.watermark.Load(); wm > 0 {
		return wm
	}
	return r.cur.Load().RecoveredVersion()
}

// Close syncs and closes the local logs. Idempotent.
func (r *Replica[K, V]) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Swap(true) {
		return nil
	}
	return r.cur.Load().Close()
}
