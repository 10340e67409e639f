package core

import (
	"cmp"
	"sync/atomic"
)

// revKind distinguishes the revision roles from §3.3.1. A single struct with
// a kind tag keeps the revision list CAS-able through one head pointer.
type revKind uint8

const (
	revRegular revKind = iota
	revLeftSplit
	revRightSplit
	revMerge
	revTerminator // merge terminator: carries no payload
)

// revision is an immutable bundle of key-value entries in a concrete
// version (§3.3.5), plus the mutable coordination fields that drive the
// lock-free protocol. Payload fields (keys, vals, hashes, slots — views
// into pl's fused buffers — and the structural constants kind, sibling,
// splitKey, rightKey, node, prevRev, remKey, remHasKey, desc) are written
// before the revision is published via CAS and never change while any
// reader can reach them. Only version, next, rightNext, splitDone,
// mergeRev, shared, reclaimed and the autoscaler stats mutate after
// publication, all through atomics — plus one exception: a retired
// revision's pointer-bearing keys/vals headers are set to nil once its
// retirement epoch has matured (recycle.go drainShard), when no reader can
// read them any more.
type revision[K cmp.Ordered, V any] struct {
	kind revKind

	// version holds the optimistic (negative) then final (positive)
	// version number — unless desc is non-nil, in which case the version
	// lives in the shared batch descriptor (§3.3.3).
	version atomic.Int64
	desc    *batchDesc[K, V]

	// Payload: entries sorted by key. hashes[i] is Hash(keys[i]); slots
	// is the lightweight hash index (2 slots per bucket, §3.3.5), nil
	// when the index is disabled or the revision is empty. pl is the
	// fused allocation backing all four slices (nil for empty revisions
	// and test-constructed ones); the inner GC retires the revision
	// through the epoch-gated recycler once it is pruned, which recycles
	// pl and, for pointer-bearing maps, releases keys and vals.
	keys   []K
	vals   []V
	hashes []uint16
	slots  []int32
	pl     *payload[K, V]

	// sharedCnt marks a revision referenced (or about to be referenced) by
	// more than one revision chain: the pre-split head both split
	// revisions point at. Its buffers (and everything below it, reachable
	// from both chains) are left to Go's collector — the exclusive
	// per-node prune that justifies recycling does not hold across chains
	// (see gc.go). It is a counter, not a flag, because the mark must be
	// visible before the split's installing CAS: a failed attempt
	// decrements its own mark without erasing a concurrent attempt's.
	sharedCnt atomic.Int32

	// reclaimed guards retirement: the first pruner to claim it owns the
	// revision's trip through the limbo.
	reclaimed atomic.Bool

	// next is the (left) successor in the revision list.
	next atomic.Pointer[revision[K, V]]

	// skip and skipPos form the version-seek accelerator (seek.go): skip
	// points a power-of-two number of revisions further down the same
	// chain (Fenwick spacing over skipPos, the revision's position within
	// its run of consecutive regular revisions). Both are written by
	// linkSkip before the revision is published and never change; skip is
	// nil on structural revisions and when chain seeking is disabled.
	skip    *revision[K, V]
	skipPos uint32

	// Merge-revision fields: rightNext is the right successor (the merged
	// node's old revision chain), rightKey the key of the node that was
	// merged away, mt the terminator this revision resolves.
	rightNext atomic.Pointer[revision[K, V]]
	rightKey  K
	mt        *revision[K, V]

	// Split-revision fields: the two split revisions reference each other
	// through sibling; splitKey is the key of the new node (the lower
	// bound of the right half). splitDone is set once the real new node
	// has been installed, guarding against the ABA scenario of §3.3.1.
	sibling   *revision[K, V]
	splitKey  K
	splitDone atomic.Bool

	// Merge-terminator fields: node is the node being merged away,
	// prevRev its revision list at termination time, remKey/remHasKey the
	// remove operation folded into the merge, mergeRev the merge revision
	// once installed (set exactly once via CAS).
	node      *node[K, V]
	prevRev   *revision[K, V]
	remKey    K
	remHasKey bool
	mergeRev  atomic.Pointer[revision[K, V]]

	stats revStats
}

// ver resolves the revision's current version number, indirecting through
// the batch descriptor (and, for cross-map batches, its group's shared
// cell) when the revision was created by a batch update.
func (r *revision[K, V]) ver() int64 {
	if r.desc != nil {
		return r.desc.ver()
	}
	if r.kind == revRightSplit {
		// Both split revisions share one linearization point: the
		// version is stored only in the left sibling, so a lookup can
		// never observe one half of a split as final and the other as
		// pending.
		return r.sibling.version.Load()
	}
	return r.version.Load()
}

// pending reports whether the update that created r has not linearized yet.
func (r *revision[K, V]) pending() bool { return r.ver() < 0 }

// shared reports whether a second chain references (or is about to
// reference) this revision; see sharedCnt.
func (r *revision[K, V]) shared() bool { return r.sharedCnt.Load() > 0 }

// size returns the number of entries in the revision.
func (r *revision[K, V]) size() int { return len(r.keys) }

// searchKeys returns the first index i with keys[i] >= key: the sort.Search
// loop with the closure and its per-iteration indirect call flattened into
// a branch-predictable inline loop — this runs on every get, find and scan
// seek.
func searchKeys[K cmp.Ordered](keys []K, key K) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if keys[h] < key {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// newRevision builds a revision over caller-owned sorted, deduplicated
// arrays, computing hashes from scratch. It serves construction paths that
// do not go through the recycler (the initial empty revision, tests);
// update hot paths use newRevisionPl with a pooled payload instead.
func (m *Map[K, V]) newRevision(kind revKind, keys []K, vals []V) *revision[K, V] {
	r := &revision[K, V]{kind: kind, keys: keys, vals: vals}
	if !m.opts.DisableHashIndex && len(keys) > 0 {
		pl := &payload[K, V]{keys: keys, vals: vals, hashes: make([]uint16, len(keys))}
		for i, k := range keys {
			pl.hashes[i] = m.opts.Hash(k)
		}
		r.hashes = pl.hashes
		r.buildSlots(pl)
		r.pl = pl
	}
	return r
}

// newRevisionPl builds a revision adopting a (usually pooled) payload whose
// keys, vals and hashes are already populated. The caller transfers
// ownership: the payload is published with the revision and only the inner
// GC may reclaim it afterwards.
func (m *Map[K, V]) newRevisionPl(kind revKind, pl *payload[K, V]) *revision[K, V] {
	r := &revision[K, V]{kind: kind}
	if pl == nil {
		return r
	}
	r.pl = pl
	r.keys = pl.keys
	r.vals = pl.vals
	if pl.hashes != nil && len(pl.keys) > 0 {
		r.hashes = pl.hashes
		r.buildSlots(pl)
	}
	return r
}

// buildSlots populates the 2-slot-per-bucket hash index into pl's slots
// buffer (grown or cleared as needed): entry i lands in slot 2t or 2t+1
// where t = hashes[i] masked to the bucket count (the next power of two >=
// len(keys), so the bucket computation is a mask, not a division); overflow
// entries are found by the binary-search fallback. Slots store entry index
// + 1 so that zeroing doubles as the empty marker.
func (r *revision[K, V]) buildSlots(pl *payload[K, V]) {
	n := len(r.keys)
	b := 1
	for b < n {
		b <<= 1
	}
	need := 2 * b
	s := pl.slots
	if cap(s) < need {
		s = make([]int32, need)
	} else {
		s = s[:need]
		clear(s)
	}
	mask := uint16(b - 1)
	for i := 0; i < n; i++ {
		t := int(r.hashes[i] & mask)
		if s[2*t] == 0 {
			s[2*t] = int32(i) + 1
		} else if s[2*t+1] == 0 {
			s[2*t+1] = int32(i) + 1
		}
	}
	pl.slots = s
	r.slots = s
}

// get returns the value stored for key in this revision. It first probes
// the hash index (two slots), declaring the key absent if a probed slot is
// empty, and falls back to binary search only on double collision (§3.3.5).
func (r *revision[K, V]) get(key K, hash func(K) uint16) (V, bool) {
	var zero V
	n := len(r.keys)
	if n == 0 {
		return zero, false
	}
	if r.slots != nil {
		t := int(hash(key) & uint16(len(r.slots)/2-1))
		i := r.slots[2*t]
		if i == 0 {
			return zero, false
		}
		if r.keys[i-1] == key {
			return r.vals[i-1], true
		}
		j := r.slots[2*t+1]
		if j == 0 {
			return zero, false
		}
		if r.keys[j-1] == key {
			return r.vals[j-1], true
		}
		// Both slots taken by other keys: the key may have overflowed.
	}
	i := searchKeys(r.keys, key)
	if i < n && r.keys[i] == key {
		return r.vals[i], true
	}
	return zero, false
}

// find returns the index of key in the sorted keys array, or (insertion
// point, false).
func (r *revision[K, V]) find(key K) (int, bool) {
	i := searchKeys(r.keys, key)
	return i, i < len(r.keys) && r.keys[i] == key
}

// clonePut returns a pooled payload equal to r's with key set to val. One
// pass: the insertion point doubles as the copy split, and the parent's
// hash array is reused — only the inserted key is hashed.
func (m *Map[K, V]) clonePut(r *revision[K, V], key K, val V) *payload[K, V] {
	i, found := r.find(key)
	n := len(r.keys)
	if found {
		pl := m.rec.alloc(n)
		copy(pl.keys, r.keys)
		copy(pl.vals, r.vals)
		pl.vals[i] = val
		if pl.hashes != nil {
			copy(pl.hashes, r.hashes)
		}
		return pl
	}
	pl := m.rec.alloc(n + 1)
	copy(pl.keys[:i], r.keys[:i])
	copy(pl.vals[:i], r.vals[:i])
	pl.keys[i] = key
	pl.vals[i] = val
	copy(pl.keys[i+1:], r.keys[i:])
	copy(pl.vals[i+1:], r.vals[i:])
	if pl.hashes != nil {
		copy(pl.hashes[:i], r.hashes[:i])
		pl.hashes[i] = m.opts.Hash(key)
		copy(pl.hashes[i+1:], r.hashes[i:])
	}
	return pl
}

// cloneRemove returns a pooled payload equal to r's with key removed (an
// unchanged copy if key is absent).
func (m *Map[K, V]) cloneRemove(r *revision[K, V], key K) *payload[K, V] {
	i, found := r.find(key)
	n := len(r.keys)
	if !found {
		pl := m.rec.alloc(n)
		copy(pl.keys, r.keys)
		copy(pl.vals, r.vals)
		if pl.hashes != nil {
			copy(pl.hashes, r.hashes)
		}
		return pl
	}
	pl := m.rec.alloc(n - 1)
	copy(pl.keys[:i], r.keys[:i])
	copy(pl.vals[:i], r.vals[:i])
	copy(pl.keys[i:], r.keys[i+1:])
	copy(pl.vals[i:], r.vals[i+1:])
	if pl.hashes != nil {
		copy(pl.hashes[:i], r.hashes[:i])
		copy(pl.hashes[i:], r.hashes[i+1:])
	}
	return pl
}

// applyBatchPl returns a pooled payload equal to r's with every entry in
// ops applied (ops sorted ascending by key, unique keys). Removes of absent
// keys are no-ops in the arrays but still force a new revision (§3.3.3
// point 5: the lost-remove anomaly). Hashes are merged alongside — kept
// entries reuse the parent's, only inserted keys are hashed.
func (m *Map[K, V]) applyBatchPl(r *revision[K, V], ops []batchEntry[K, V]) *payload[K, V] {
	pl := m.rec.alloc(len(r.keys) + len(ops))
	wh := pl.hashes != nil
	w := 0
	i, j := 0, 0
	for i < len(r.keys) && j < len(ops) {
		switch {
		case r.keys[i] < ops[j].key:
			pl.keys[w], pl.vals[w] = r.keys[i], r.vals[i]
			if wh {
				pl.hashes[w] = r.hashes[i]
			}
			w++
			i++
		case r.keys[i] > ops[j].key:
			if !ops[j].remove {
				pl.keys[w], pl.vals[w] = ops[j].key, ops[j].val
				if wh {
					pl.hashes[w] = m.opts.Hash(ops[j].key)
				}
				w++
			}
			j++
		default:
			if !ops[j].remove {
				pl.keys[w], pl.vals[w] = ops[j].key, ops[j].val
				if wh {
					pl.hashes[w] = r.hashes[i]
				}
				w++
			}
			i++
			j++
		}
	}
	for ; i < len(r.keys); i++ {
		pl.keys[w], pl.vals[w] = r.keys[i], r.vals[i]
		if wh {
			pl.hashes[w] = r.hashes[i]
		}
		w++
	}
	for ; j < len(ops); j++ {
		if !ops[j].remove {
			pl.keys[w], pl.vals[w] = ops[j].key, ops[j].val
			if wh {
				pl.hashes[w] = m.opts.Hash(ops[j].key)
			}
			w++
		}
	}
	pl.truncate(w)
	return pl
}

// splitPayloads copies the two halves of a combined payload into fresh
// pooled payloads for a node split (§3.3.1: "a new node inherits the upper
// half of the key range") and returns them with the new node's key (the
// first key of the right half). The copy — rather than aliasing the halves
// into the combined buffer, as an earlier revision of this code did — is
// what lets each half's buffers be recycled independently: an aliasing
// right half would keep the entire combined array reachable (and
// unrecyclable) for the lifetime of the right node. The caller still owns
// the combined payload afterwards and recycles it as scratch. len(keys)
// must be >= 2.
func (m *Map[K, V]) splitPayloads(pl *payload[K, V]) (lpl, rpl *payload[K, V], splitKey K) {
	mid := len(pl.keys) / 2
	lpl = m.rec.alloc(mid)
	rpl = m.rec.alloc(len(pl.keys) - mid)
	copy(lpl.keys, pl.keys[:mid])
	copy(lpl.vals, pl.vals[:mid])
	copy(rpl.keys, pl.keys[mid:])
	copy(rpl.vals, pl.vals[mid:])
	if pl.hashes != nil {
		if lpl.hashes != nil {
			copy(lpl.hashes, pl.hashes[:mid])
		}
		if rpl.hashes != nil {
			copy(rpl.hashes, pl.hashes[mid:])
		}
	}
	return lpl, rpl, pl.keys[mid]
}

// unionPayload concatenates two disjoint sorted runs (left strictly below
// right) into a pooled payload for a merge revision, merging hashes when
// both sides carry them (an empty side's hashes are nil).
func (m *Map[K, V]) unionPayload(lk []K, lv []V, lh []uint16, rk []K, rv []V, rh []uint16) *payload[K, V] {
	pl := m.rec.alloc(len(lk) + len(rk))
	copy(pl.keys, lk)
	copy(pl.keys[len(lk):], rk)
	copy(pl.vals, lv)
	copy(pl.vals[len(lk):], rv)
	if pl.hashes != nil {
		copy(pl.hashes, lh)
		copy(pl.hashes[len(lk):], rh)
	}
	return pl
}
