package core

import (
	"cmp"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// payload is the fused allocation backing one revision: the keys, values,
// hashes and hash-index slots arrays are carved from a single size-classed
// unit that travels through the recycler as one object. Fusing them turns
// the 3-4 per-update heap allocations of the old cloneAndPut/cloneAndRemove
// path into at most one pool miss, and gives retirement a single handle to
// recycle.
//
// A payload's slices are written only between allocation and the publishing
// CAS of the revision that adopts it; afterwards they are immutable until
// the revision is retired by the inner GC and the epoch advances past every
// possible reader (see epoch.go).
type payload[K cmp.Ordered, V any] struct {
	keys   []K
	vals   []V
	hashes []uint16 // nil when the hash index is disabled
	slots  []int32  // managed by buildSlots; len 2*b for b buckets
	class  int      // pooled capacity (power of two); 0 = not recyclable
}

// truncate shrinks the payload's logical length to n (entries beyond n stay
// in the buffers until overwritten by the next user — they are never read).
func (pl *payload[K, V]) truncate(n int) {
	pl.keys = pl.keys[:n]
	pl.vals = pl.vals[:n]
	if pl.hashes != nil {
		pl.hashes = pl.hashes[:n]
	}
}

const (
	// payloadMinClass and payloadMaxClass bound the pooled size classes
	// (powers of two). Requests above the max are served by plain make and
	// never recycled: they come from oversized batch applies that a split
	// immediately breaks up, so pooling them would only pin memory.
	payloadMinClass = 16
	payloadMaxClass = 4096

	// limboDrainLen is the per-shard retirement backlog that triggers an
	// epoch-advance attempt and a drain into the free pools. After a drain
	// the trigger escalates to current-backlog + limboDrainLen, so a shard
	// full of not-yet-matured buffers is rescanned once per limboDrainLen
	// retires, not once per retire (an oversubscribed scheduler can stall
	// the epoch for whole scheduling rounds; rescanning the backlog every
	// retire then turns quadratic).
	limboDrainLen = 64

	// limboMaxLen caps a shard's backlog: beyond it, the newest retirees
	// are dropped to Go's GC instead of being parked. Recycling degrades
	// to ordinary collection under epoch starvation rather than growing
	// an unbounded (and unboundedly rescanned) queue.
	limboMaxLen = 256
)

// numPayloadClasses is the number of pooled size classes.
var numPayloadClasses = bits.TrailingZeros(payloadMaxClass) - bits.TrailingZeros(payloadMinClass) + 1

// classFor returns the pool index and capacity class for a payload of n
// entries, or (-1, 0) when n is beyond the pooled range.
func classFor(n int) (idx, class int) {
	if n > payloadMaxClass {
		return -1, 0
	}
	c := payloadMinClass
	i := 0
	for c < n {
		c <<= 1
		i++
	}
	return i, c
}

// classReserve is one size class's bounded, GC-immune free list. sync.Pool
// alone is the wrong sole store for recycled payloads: the epoch protocol
// parks a retired buffer for two advances before it may re-enter
// circulation, and on allocation-heavy workloads the garbage collector
// often wipes the pool within that window — so buffers cycle park → pool →
// wiped and the hit rate collapses exactly when recycling matters most.
// The reserve holds a small fixed complement per class that survives GC;
// the pool handles overflow (and keeps the no-lock fast path).
type classReserve[K cmp.Ordered, V any] struct {
	mu    sync.Mutex
	items []*payload[K, V] // capacity fixed at construction
}

// reserveCap bounds a class's reserve so the retained memory per class
// stays in the tens-of-kilobytes range regardless of class size.
func reserveCap(class int) int {
	c := 4096 / class
	if c < 4 {
		return 4
	}
	if c > 64 {
		return 64
	}
	return c
}

// limboItem is one retired payload awaiting its reuse epoch, plus — for
// pointer-bearing maps — the retired revision whose arrays are released at
// the same epoch.
type limboItem[K cmp.Ordered, V any] struct {
	epoch uint64
	pl    *payload[K, V]
	rev   *revision[K, V]
}

// limboShard is one stripe of a recycler's retirement backlog. nextDrain is
// the backlog length that triggers the next drain attempt (escalated after
// unproductive drains; guarded by mu).
type limboShard[K cmp.Ordered, V any] struct {
	mu        sync.Mutex
	items     []limboItem[K, V]
	nextDrain int
}

// recycler is a Map's payload allocator: size-classed sync.Pool free lists
// fed by an epoch-gated limbo of retired buffers. Construction-side scratch
// (combined pre-split arrays, merge remove-clones, revisions whose
// publishing CAS failed) bypasses the limbo via recycleNow — no reader ever
// saw those buffers, so they are immediately reusable.
type recycler[K cmp.Ordered, V any] struct {
	disabled bool
	withHash bool
	// fuseKeys/fuseVals: the element type is pointer-free, so its buffer
	// is part of the fused, recyclable unit. Pointer-bearing components
	// (string keys, pointer or struct-with-pointer values) are allocated
	// fresh per revision and never pooled: a parked buffer full of
	// pointers would pin dead entries and be re-scanned by the garbage
	// collector every cycle, which costs more than the allocation it
	// saves. Pooled buffers are therefore always pointer-free (noscan
	// spans), making the pools nearly invisible to the GC.
	//
	// release (either component is pointer-bearing) makes the limbo park
	// the retired revision alongside its payload: pruned revision structs
	// stay reachable through skip pointers and frozen next chains
	// (seek.go), so once the epoch matures the revision's pointer-bearing
	// slice headers are cleared and the arrays behind them — with every
	// key and value they reference — become garbage.
	fuseKeys bool
	fuseVals bool
	release  bool
	keySize  uintptr
	valSize  uintptr
	pools    []sync.Pool
	reserves []classReserve[K, V]
	limbo    []limboShard[K, V]

	hits     atomic.Uint64 // allocations served from a pool
	misses   atomic.Uint64 // allocations that hit the heap
	recycled atomic.Uint64 // payload bytes returned to the pools
}

func newRecycler[K cmp.Ordered, V any](disabled, withHash bool) *recycler[K, V] {
	var k K
	var v V
	rc := &recycler[K, V]{
		disabled: disabled,
		withHash: withHash,
		fuseKeys: !typeHasPointers(reflect.TypeOf(&k).Elem()),
		fuseVals: !typeHasPointers(reflect.TypeOf(&v).Elem()),
		keySize:  unsafe.Sizeof(k),
		valSize:  unsafe.Sizeof(v),
		pools:    make([]sync.Pool, numPayloadClasses),
		reserves: make([]classReserve[K, V], numPayloadClasses),
		limbo:    make([]limboShard[K, V], epochStripes),
	}
	rc.release = !rc.fuseKeys || !rc.fuseVals
	for i := range rc.reserves {
		rc.reserves[i].items = make([]*payload[K, V], 0, reserveCap(payloadMinClass<<i))
	}
	return rc
}

// typeHasPointers reports whether values of t embed pointers the garbage
// collector must chase (computed once per Map at construction).
func typeHasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && typeHasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if typeHasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		// Pointers, strings, slices, maps, chans, funcs, interfaces.
		return true
	}
}

// alloc returns a payload with logical length n, from the free pools when
// possible. The caller owns it exclusively until it publishes the adopting
// revision.
func (rc *recycler[K, V]) alloc(n int) *payload[K, V] {
	if rc.disabled {
		return rc.fresh(n, 0)
	}
	idx, class := classFor(n)
	if idx < 0 {
		return rc.fresh(n, 0)
	}
	pl, _ := rc.pools[idx].Get().(*payload[K, V])
	if pl == nil {
		// The pool is empty (cold, or wiped by a GC cycle): fall back to
		// the GC-immune reserve.
		r := &rc.reserves[idx]
		r.mu.Lock()
		if len(r.items) > 0 {
			pl = r.items[len(r.items)-1]
			r.items[len(r.items)-1] = nil
			r.items = r.items[:len(r.items)-1]
		}
		r.mu.Unlock()
	}
	if pl != nil {
		rc.hits.Add(1)
		if rc.fuseKeys {
			pl.keys = pl.keys[:n]
		} else {
			pl.keys = make([]K, n)
		}
		if rc.fuseVals {
			pl.vals = pl.vals[:n]
		} else {
			pl.vals = make([]V, n)
		}
		if pl.hashes != nil {
			pl.hashes = pl.hashes[:n]
		}
		return pl
	}
	rc.misses.Add(1)
	// Opportunistically nudge the epoch and move one limbo shard's matured
	// buffers into the pools so a warming map stops missing. Sampled 1/16:
	// when the epoch is starved (an oversubscribed scheduler parking
	// pinned goroutines), misses dominate, and paying a census scan plus a
	// backlog walk on every one of them would cost more than the heap
	// allocation it tries to avoid.
	r := rand.Uint64()
	if r&0xf == 0 {
		// Gate and shard index use disjoint bits, so every limbo shard is
		// reachable from the sampled drains.
		rc.drainShard(&rc.limbo[int(r>>8)&(epochStripes-1)], epochTryAdvance())
	}
	return rc.fresh(n, class)
}

// fresh heap-allocates a payload of length n. Fused (pointer-free) buffers
// get capacity class so they are poolable; unfused ones are sized exactly —
// they are discarded with the revision either way.
func (rc *recycler[K, V]) fresh(n, class int) *payload[K, V] {
	c := class
	if c == 0 {
		c = n
	}
	pl := &payload[K, V]{class: class}
	if rc.fuseKeys {
		pl.keys = make([]K, n, c)
	} else {
		pl.keys = make([]K, n)
	}
	if rc.fuseVals {
		pl.vals = make([]V, n, c)
	} else {
		pl.vals = make([]V, n)
	}
	if rc.withHash {
		pl.hashes = make([]uint16, n, c)
	}
	return pl
}

// recycleNow returns a payload that was never published (scratch, or a
// failed CAS) straight to the free pools.
func (rc *recycler[K, V]) recycleNow(pl *payload[K, V]) {
	if pl == nil || pl.class == 0 || rc.disabled {
		return
	}
	rc.put(pl)
}

// retireMany parks a batch of pruned revisions in the limbo with one stripe
// lock — the inner GC's prune hands over everything it dropped at a node in
// one call — until the epoch advances past every reader that could still
// hold them. The caller must have definitively unlinked the revisions first
// (exclusive per-node prune, gc.go): the epoch tag is read after the
// unlink, so any reader able to reach the arrays is pinned at an epoch <=
// the tag.
func (rc *recycler[K, V]) retireMany(revs []*revision[K, V]) {
	if rc.disabled || len(revs) == 0 {
		return
	}
	e := epochClock.Load()
	sh := &rc.limbo[int(rand.Uint64())&(epochStripes-1)]
	sh.mu.Lock()
	if sh.nextDrain == 0 {
		sh.nextDrain = limboDrainLen
	}
	for _, r := range revs {
		it := limboItem[K, V]{epoch: e, pl: r.pl}
		if rc.release {
			it.rev = r
		} else if r.pl.class == 0 {
			continue // unpooled (oversized) buffer: Go's GC owns it
		}
		if len(sh.items) >= limboMaxLen {
			// Epoch starvation — shed the rest to Go's GC rather than
			// growing (and rescanning) the backlog without bound.
			break
		}
		sh.items = append(sh.items, it)
	}
	// Drain when the backlog crosses its escalating threshold, or when the
	// epoch has moved two steps past the oldest parked buffer (so a capped
	// or quiet shard still empties once its contents mature).
	trigger := len(sh.items) >= sh.nextDrain ||
		(len(sh.items) > 0 && e >= sh.items[0].epoch+2)
	sh.mu.Unlock()
	if trigger {
		rc.drainShard(sh, epochTryAdvance())
	}
}

// drainShard moves the shard's matured buffers (retired at epoch e with
// e+2 <= now) into the free pools, releases matured revisions' pointer-
// bearing arrays, and escalates the shard's next drain trigger past
// whatever could not be freed yet.
//
// Releasing is one store per array, not a clear: no reader can reach a
// matured revision's arrays any more (the same argument that lets its
// buffers be reused), so dropping the slice header is enough to make them
// — and the keys and values they reference — garbage. Skip and next
// pointers are untouched; the frozen paths through the revision stay
// intact for the version reads that still walk them.
func (rc *recycler[K, V]) drainShard(sh *limboShard[K, V], now uint64) {
	sh.mu.Lock()
	items := sh.items
	w := 0
	for _, it := range items {
		if it.epoch+2 <= now {
			if r := it.rev; r != nil {
				if !rc.fuseKeys {
					r.keys = nil
				}
				if !rc.fuseVals {
					r.vals = nil
				}
			}
			rc.put(it.pl)
		} else {
			items[w] = it
			w++
		}
	}
	for i := w; i < len(items); i++ {
		items[i] = limboItem[K, V]{}
	}
	sh.items = items[:w]
	sh.nextDrain = w + limboDrainLen
	sh.mu.Unlock()
}

// put files a payload under its size class, dropping any pointer-bearing
// component first so parked buffers never pin entries or cost GC scans.
// Stale scalars beyond the next user's length are never read, and the
// retained memory is bounded by the pool itself (sync.Pool drops items on
// GC).
func (rc *recycler[K, V]) put(pl *payload[K, V]) {
	if pl.class == 0 {
		return // unpooled (oversized) buffer: Go's GC owns it
	}
	idx, _ := classFor(pl.class)
	if idx < 0 {
		return
	}
	if !rc.fuseKeys {
		pl.keys = nil
	}
	if !rc.fuseVals {
		pl.vals = nil
	}
	rc.recycled.Add(uint64(rc.payloadBytes(pl)))
	r := &rc.reserves[idx]
	r.mu.Lock()
	if len(r.items) < cap(r.items) {
		r.items = append(r.items, pl)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	rc.pools[idx].Put(pl)
}

// payloadBytes estimates the buffer capacity a payload carries.
func (rc *recycler[K, V]) payloadBytes(pl *payload[K, V]) uintptr {
	b := uintptr(cap(pl.keys))*rc.keySize + uintptr(cap(pl.vals))*rc.valSize
	b += uintptr(cap(pl.hashes)) * 2
	b += uintptr(cap(pl.slots)) * 4
	return b
}

// RecyclerStats is a point-in-time summary of a Map's payload recycling.
type RecyclerStats struct {
	PoolHits      uint64 // payload allocations served from the free pools
	PoolMisses    uint64 // payload allocations that hit the heap
	RecycledBytes uint64 // cumulative buffer bytes returned to the pools
	Epoch         uint64 // current global reclamation epoch
}

func (rc *recycler[K, V]) stats() RecyclerStats {
	return RecyclerStats{
		PoolHits:      rc.hits.Load(),
		PoolMisses:    rc.misses.Load(),
		RecycledBytes: rc.recycled.Load(),
		Epoch:         epochClock.Load(),
	}
}
