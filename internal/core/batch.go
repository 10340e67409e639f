package core

import (
	"cmp"
	"sort"
	"sync/atomic"
	"unsafe"

	"repro/internal/tsc"
)

// Batch accumulates put and remove operations to be applied atomically by
// Map.BatchUpdate: either every operation in the batch is visible to a
// reader (or snapshot) or none is. A Batch is not safe for concurrent
// mutation; build it on one goroutine, then hand it to BatchUpdate.
type Batch[K cmp.Ordered, V any] struct {
	ops []batchEntry[K, V]
}

// NewBatch returns an empty batch. sizeHint pre-allocates capacity.
func NewBatch[K cmp.Ordered, V any](sizeHint int) *Batch[K, V] {
	return &Batch[K, V]{ops: make([]batchEntry[K, V], 0, sizeHint)}
}

// Put schedules key to be set to val.
func (b *Batch[K, V]) Put(key K, val V) *Batch[K, V] {
	b.ops = append(b.ops, batchEntry[K, V]{key: key, val: val})
	return b
}

// Remove schedules key to be deleted. Removing an absent key is permitted
// and has no effect beyond the atomicity guarantee (§3.3.3, point 5).
func (b *Batch[K, V]) Remove(key K) *Batch[K, V] {
	b.ops = append(b.ops, batchEntry[K, V]{key: key, remove: true})
	return b
}

// Len returns the number of scheduled operations.
func (b *Batch[K, V]) Len() int { return len(b.ops) }

// Reset empties the batch, keeping its capacity for reuse.
func (b *Batch[K, V]) Reset() *Batch[K, V] {
	b.ops = b.ops[:0]
	return b
}

type batchEntry[K cmp.Ordered, V any] struct {
	key    K
	val    V
	remove bool
}

// batchDesc is the batch descriptor (§3.3.3): the shared record through
// which every revision created by one batch update reads its version
// number, making all of the batch's effects visible atomically when the
// final version is assigned. remaining counts the entries not yet applied;
// helpers process entries strictly from the highest key downward (rule 3).
type batchDesc[K cmp.Ordered, V any] struct {
	version atomic.Int64

	// first and n publish the normalized entries (ascending by key, unique
	// keys) as a pointer to the first element plus a count — atomic
	// without a second allocation per batch — so the owner can hand them
	// off once the batch has committed and its batchGC has run
	// (dropEntries). Every batch revision keeps its
	// descriptor for as long as the revision is reachable; without the
	// handoff a surviving revision would pin every key and value of the
	// whole batch. A helper that loads nil finds nothing left to apply.
	first     atomic.Pointer[batchEntry[K, V]]
	n         int
	remaining atomic.Int64

	// group, when non-nil, makes this descriptor one part of a cross-map
	// batch (MultiBatchUpdate): the version lives in the group's shared
	// cell, not in the version field above. After the group commits, the
	// final version is cached into the version field and group is cleared
	// (releaseGroup), so revisions surviving in the shards' histories stop
	// pinning every sibling shard's entries and maps.
	group atomic.Pointer[batchGroup[K, V]]
}

// newBatchDesc returns a descriptor over normalized, non-empty entries with
// every entry still to apply; the caller sets the optimistic version.
func newBatchDesc[K cmp.Ordered, V any](entries []batchEntry[K, V]) *batchDesc[K, V] {
	d := &batchDesc[K, V]{n: len(entries)}
	d.first.Store(&entries[0])
	d.remaining.Store(int64(len(entries)))
	return d
}

// entries returns the batch's normalized entries, or nil once the owner has
// dropped them (the batch has then committed).
func (d *batchDesc[K, V]) entries() []batchEntry[K, V] {
	p := d.first.Load()
	if p == nil {
		return nil
	}
	return unsafe.Slice(p, d.n)
}

// dropEntries releases the entries of a committed batch whose batchGC has
// run. Only the owner calls it: helpers still in flight keep the slice they
// loaded, and any later helper sees a final version (or no entries) and
// applies nothing.
func (d *batchDesc[K, V]) dropEntries() { d.first.Store(nil) }

// ver reads the descriptor's current version number, indirecting through
// the group's shared cell for cross-map batches.
func (d *batchDesc[K, V]) ver() int64 {
	if g := d.group.Load(); g != nil {
		return g.version.Load()
	}
	return d.version.Load()
}

// batchGroup coordinates one cross-map batch update (MultiBatchUpdate). It
// generalizes the descriptor's visible/commit split across maps: all parts
// share one version cell, and the shared version cannot turn final until
// every part has installed its revisions on its map. Any thread that
// encounters one pending revision of the group helps drive every part to
// completion, so the whole multi-map update is non-blocking.
//
// parts are sorted by the maps' canonical order (Map.seq), and every
// helper applies them in that order. This extends the single-map
// descending-key rule to a global processing order (map seq ascending,
// keys descending within a map), which keeps concurrent groups' help
// chains acyclic: a group blocked at position p has installed pending
// revisions only at positions before p, so the group it helps — whose
// pending revision sits at p — has remaining work strictly after p and can
// never need this group's own positions. Without the canonical order, two
// groups applying the same maps in opposite orders each hold the revision
// the other needs and mutual helping recurses forever.
type batchGroup[K cmp.Ordered, V any] struct {
	version atomic.Int64
	clock   tsc.Clock
	parts   []groupPart[K, V]
}

// groupPart binds one map to its share of a cross-map batch.
type groupPart[K cmp.Ordered, V any] struct {
	m    *Map[K, V]
	desc *batchDesc[K, V]
}

// finalize is the group's commit protocol. Phase one (visible): every
// part's entries are applied, installing pending revisions on all maps.
// Phase two (commit): one final version number is CASed into the shared
// cell — the single linearization point of the whole cross-map update.
// Idempotent; raced finalizers agree on the version the first CAS set.
//
// The atomicity argument mirrors the single-map one (see applyBatchDesc):
// because the final version is drawn from the shared clock only after every
// part's revisions are installed, a snapshot that read its version before
// some part was installed observes a commit version at or above its own cut
// and excludes the batch on every map, while a snapshot whose version
// covers the commit finds the batch's revisions present on every map.
func (g *batchGroup[K, V]) finalize() int64 {
	if v := g.version.Load(); v > 0 {
		return v
	}
	for _, p := range g.parts {
		p.m.applyBatchDesc(p.desc)
	}
	return commitVersion(&g.version, g.clock)
}

// MapBatch names one map's share of a MultiBatchUpdate.
type MapBatch[K cmp.Ordered, V any] struct {
	Map   *Map[K, V]
	Batch *Batch[K, V]
}

// MultiBatchUpdate applies the given per-map batches as one atomic,
// linearizable update spanning all of the maps: no reader or snapshot on
// any of the maps can observe a state where some parts have taken effect
// and others have not. All maps must share the same Clock (as the shards of
// a sharded frontend do); MultiBatchUpdate panics otherwise. Parts aimed at
// the same map are coalesced (later parts win on key conflicts), and empty
// parts are ignored; a call whose live operations all land on one map
// degenerates to that map's ordinary BatchUpdate.
func MultiBatchUpdate[K cmp.Ordered, V any](parts ...MapBatch[K, V]) {
	MultiBatchUpdateVersioned(parts...)
}

// MultiBatchUpdateVersioned is MultiBatchUpdate, but additionally reports
// the final version number the whole cross-map batch committed at (see
// PutVersioned for what the version means; here one version covers every
// map). A call with no live operations reports version zero.
func MultiBatchUpdateVersioned[K cmp.Ordered, V any](parts ...MapBatch[K, V]) int64 {
	// Coalesce parts aimed at the same map: two pending descriptors of one
	// group on one map would block each other (nothing can stack on a
	// pending revision, and neither part could finalize without the other).
	type acc struct {
		m     *Map[K, V]
		ops   []batchEntry[K, V]
		owned bool // ops is a private copy, not an alias of a caller's Batch
	}
	var accs []acc
outer:
	for _, p := range parts {
		if p.Map == nil || p.Batch == nil || len(p.Batch.ops) == 0 {
			continue
		}
		for i := range accs {
			if accs[i].m == p.Map {
				// First duplicate of this map: copy before appending so
				// the caller's Batch backing array is never written. In
				// the common all-distinct case ops stay aliased — they
				// are only read, and normalizeBatch copies anyway.
				if !accs[i].owned {
					cp := make([]batchEntry[K, V], len(accs[i].ops), len(accs[i].ops)+len(p.Batch.ops))
					copy(cp, accs[i].ops)
					accs[i].ops = cp
					accs[i].owned = true
				}
				accs[i].ops = append(accs[i].ops, p.Batch.ops...)
				continue outer
			}
		}
		accs = append(accs, acc{m: p.Map, ops: p.Batch.ops})
	}
	if len(accs) == 0 {
		return 0
	}
	if len(accs) == 1 {
		return accs[0].m.BatchUpdateVersioned(&Batch[K, V]{ops: accs[0].ops})
	}
	// Canonical map order: see the batchGroup comment for why this is
	// required for progress, not a nicety.
	sort.Slice(accs, func(i, j int) bool { return accs[i].m.seq < accs[j].m.seq })
	clock := accs[0].m.clock
	g := &batchGroup[K, V]{clock: clock}
	for _, a := range accs {
		if a.m.clock != clock {
			panic("core: MultiBatchUpdate requires all maps to share one Clock")
		}
		desc := newBatchDesc(normalizeBatch(a.ops))
		desc.group.Store(g)
		g.parts = append(g.parts, groupPart[K, V]{m: a.m, desc: desc})
	}
	g.version.Store(-(clock.Read() + 1))
	// Pin the reclamation epoch across application and GC: the group's
	// helpers read (and retire) payload buffers on every involved map, and
	// the epoch domain is process-global for exactly this reason.
	slot, epoch := epochEnter()
	fin := g.finalize()
	for _, p := range g.parts {
		p.m.batchGC(p.desc)
	}
	epochExit(slot, epoch)
	// Release: cache the final version in every descriptor, then drop the
	// cross-map references and the entries. A batch revision surviving in
	// some shard's history afterwards pins neither its sibling shards'
	// entries and maps nor its own batch's entries. Readers racing this
	// see either the group (whose version is final) or the cached
	// version; each descriptor's version is stored strictly before its
	// group pointer is cleared.
	for _, p := range g.parts {
		p.desc.version.Store(fin)
		p.desc.group.Store(nil)
		p.desc.dropEntries()
	}
	return fin
}

// BatchUpdate applies all of b's operations atomically, in one linearizable
// step. If the same key appears multiple times in the batch, the last
// scheduled operation wins. The batch object may be reused afterwards.
//
// Like put and remove, a batch update never aborts; concurrent threads that
// encounter its pending revisions help drive it to completion.
func (m *Map[K, V]) BatchUpdate(b *Batch[K, V]) {
	m.BatchUpdateVersioned(b)
}

// BatchUpdateVersioned is BatchUpdate, but additionally reports the final
// version number the batch committed at — the batch's single linearization
// point (see PutVersioned for what the version means). An empty batch
// performs no update and reports version zero.
func (m *Map[K, V]) BatchUpdateVersioned(b *Batch[K, V]) int64 {
	entries := normalizeBatch(b.ops)
	if len(entries) == 0 {
		return 0
	}
	slot, epoch := epochEnter()
	defer epochExit(slot, epoch)
	desc := newBatchDesc(entries)
	desc.version.Store(-(m.clock.Read() + 1))
	m.applyBatchDesc(desc)
	ver := m.finalizeDesc(desc)
	m.batchGC(desc)
	desc.dropEntries()
	return ver
}

// normalizeBatch sorts ops ascending by key, deduplicating so the last
// operation on each key wins.
func normalizeBatch[K cmp.Ordered, V any](ops []batchEntry[K, V]) []batchEntry[K, V] {
	if len(ops) == 0 {
		return nil
	}
	out := make([]batchEntry[K, V], len(ops))
	copy(out, ops)
	sort.SliceStable(out, func(i, j int) bool { return out[i].key < out[j].key })
	w := 0
	for i := 1; i < len(out); i++ {
		if out[i].key == out[w].key {
			out[w] = out[i] // later op wins
		} else {
			w++
			out[w] = out[i]
		}
	}
	return out[:w+1]
}

// helpBatch drives the batch update that created desc to completion:
// application, then version assignment. For a cross-map batch every part of
// the group is driven, so helping a single pending revision completes the
// whole multi-map update. Idempotent; any thread that encounters one of the
// batch's pending revisions runs it (§3.3.3, point 4).
func (m *Map[K, V]) helpBatch(desc *batchDesc[K, V]) {
	if g := desc.group.Load(); g != nil {
		g.finalize()
		return
	}
	m.applyBatchDesc(desc)
	m.finalizeDesc(desc)
}

// applyBatchDesc applies desc's entries node by node from the highest
// remaining key downward (rule 3). It installs revisions but never assigns
// the final version number — that is the caller's (or the group's) commit
// step.
//
// Progress accounting: desc.remaining is only a starting hint (it never
// advances past unapplied entries, so starting from it is sound, and a
// stale high value merely revisits nodes that are skipped). Correctness
// rests on three facts, not on the counter:
//
//  1. A node holding one of this batch's revisions is frozen — nothing can
//     stack on a pending revision (rule 2), so the revision stays at head,
//     the node cannot split or take part in a merge, and key coverage of
//     its range cannot move — until the batch finalizes. Hence
//     "head.desc == desc" is a sound and complete applied-here test while
//     the descriptor is pending.
//  2. Each application takes every remaining entry >= the node's key, so a
//     node is applied at most once and that application covers all of the
//     batch's entries in its range.
//  3. Re-reading desc.version after loading the head closes the stale-
//     helper race: if the version is still optimistic at that point, any
//     earlier application that could affect this node's range froze its
//     node through the present, so this find either sees that node (and
//     skips) or the head CAS fails against the intervening change.
func (m *Map[K, V]) applyBatchDesc(desc *batchDesc[K, V]) {
	entries := desc.entries()       // nil: committed and released, nothing to do
	cursor := desc.remaining.Load() // entries[cursor:] are already applied
	for cursor > 0 && entries != nil {
		topKey := entries[cursor-1].key
		nd := m.findNodeForKey(topKey)
		if nd.kind == nodeTempSplit {
			m.helpSplit(nd.parent, nd.lrev)
			continue
		}
		nextNode := nd.next.Load()
		headRev := nd.head.Load()
		if desc.ver() > 0 {
			return // the batch linearized while we were looking
		}
		if nd.terminated.Load() {
			continue
		}
		if headRev.kind == revTerminator {
			m.helpMergeTerminator(headRev)
			continue
		}
		lo := batchRunStart(entries[:cursor], nd)
		if headRev.desc == desc {
			// Already applied here (fact 1); skip the node's run. If
			// the application split the node, finish the split first:
			// its installer may have stalled before helpSplit, and once
			// the batch commits its split revisions are final, so
			// updates stack on the node — rebuilt from the left half
			// alone while the right half is still unpublished.
			switch headRev.kind {
			case revLeftSplit:
				m.helpSplit(nd, headRev)
			case revRightSplit:
				m.helpSplit(headRev.sibling.node, headRev.sibling)
			}
			desc.remaining.CompareAndSwap(cursor, lo)
			cursor = lo
			continue
		}
		if headRev.pending() {
			m.helpPendingUpdate(headRev)
			continue
		}
		if nx := nd.next.Load(); nx != nextNode || (nx != nil && nx.covers(topKey)) {
			continue
		}

		run := entries[lo:cursor]
		pl := m.applyBatchPl(headRev, run)

		if m.shouldSplit(headRev, len(pl.keys)) {
			lsr := m.makeSplitPair(nd, headRev, pl, 0, desc)
			if nd.head.CompareAndSwap(headRev, lsr) {
				m.helpSplit(nd, lsr)
				desc.remaining.CompareAndSwap(cursor, lo)
				cursor = lo
			} else {
				m.recycleSplitPair(lsr)
			}
			continue
		}
		nr := m.newRevisionPl(revRegular, pl)
		nr.desc = desc
		nr.next.Store(headRev)
		m.linkSkip(nr, headRev)
		m.carryUpdateStats(&nr.stats, &headRev.stats)
		if nd.head.CompareAndSwap(headRev, nr) {
			desc.remaining.CompareAndSwap(cursor, lo)
			cursor = lo
		} else {
			// Never published: the payload goes straight back to the pool.
			m.rec.recycleNow(pl)
		}
	}
}

// batchRunStart returns the index of the first remaining entry that falls
// in nd's key range; entries below it belong to lower nodes.
func batchRunStart[K cmp.Ordered, V any](entries []batchEntry[K, V], nd *node[K, V]) int64 {
	if nd.isBase {
		return 0
	}
	return int64(searchEntries(entries, nd.key))
}

// searchEntries returns the first index i with entries[i].key >= key (the
// inlined binary search of searchKeys, over batch entries).
func searchEntries[K cmp.Ordered, V any](entries []batchEntry[K, V], key K) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if entries[h].key < key {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// finalizeDesc assigns the batch's final version number once every entry
// has been applied — the batch's single linearization point. Cross-map
// descriptors route through the group, which first makes sure every sibling
// part has been applied.
func (m *Map[K, V]) finalizeDesc(desc *batchDesc[K, V]) int64 {
	if g := desc.group.Load(); g != nil {
		return g.finalize()
	}
	return commitVersion(&desc.version, m.clock)
}

// commitVersion is the shared commit dance of finalizeDesc and
// batchGroup.finalize: turn the optimistic (negative) version in cell
// into a final one drawn from clock. The final version must not run ahead
// of the machine-wide clock (waitUntil, Algorithm 1 lines 66-68), so if
// the optimistic value exceeds the clock the clock is first driven up to
// it. Idempotent; raced committers agree on the version the first CAS
// set.
func commitVersion(cell *atomic.Int64, clock tsc.Clock) int64 {
	v := cell.Load()
	if v > 0 {
		return v
	}
	fin := clock.Read()
	if o := -v; o > fin {
		fin = o
		clock.ReadAtLeast(fin)
	}
	if cell.CompareAndSwap(v, fin) {
		return fin
	}
	return cell.Load()
}

// batchGC prunes the revision lists of the nodes the batch touched, one
// find per distinct node, mirroring the per-update GC of single-key
// operations (including the per-node prune trylock that makes payload
// retirement sound; a busy node is simply skipped).
func (m *Map[K, V]) batchGC(desc *batchDesc[K, V]) {
	entries := desc.entries()
	i := 0
	for i < len(entries) {
		key := entries[i].key
		nd := m.findNodeForKey(key)
		if nd.kind == nodeTempSplit {
			m.helpSplit(nd.parent, nd.lrev)
			continue
		}
		head := nd.head.Load()
		if head.kind != revTerminator {
			// Full handshake (want flag, catch-up rounds, deferred
			// retirement) — an inline trylock here would drop the
			// catch-up promise pruneNodeChain's skippers rely on.
			m.pruneNodeChain(nd, head)
		}
		// Skip every entry this node covers.
		next := nd.next.Load()
		if next == nil {
			return
		}
		i = searchEntries(entries, next.key)
	}
}
