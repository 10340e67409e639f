package core

import (
	"math/rand/v2"
	"sync/atomic"
)

// Epoch-based reclamation for revision payload buffers.
//
// The inner GC (gc.go) proves that a pruned revision can never be reached by
// a *future* reader: no registered snapshot needs it and it has been
// unlinked from its chain. That is enough for Go's collector, but not for
// buffer recycling — a reader that loaded the revision pointer just before
// the unlink may still be walking its keys/vals arrays. The epoch scheme
// below closes exactly that window: every operation that can touch payload
// buffers pins the current epoch in a sharded reader census for its
// duration, and a pruned revision's buffers only re-enter circulation once
// the global epoch has advanced two steps past the epoch in which they were
// retired — by which point every reader that could have seen the revision
// has provably exited.
//
// The census is process-global and striped (epochStripes cache-line-padded
// counter triples) so that pinning costs two uncontended atomic adds on a
// random stripe. One global domain, rather than one per Map, is load-bearing
// for cross-map batches: a helper pinned while operating on map A may be
// pulled into completing map B's part of a MultiBatchUpdate group, and its
// pin must protect the payloads it reads there too.
//
// Protocol invariants:
//
//   - A reader pins epoch e only after validating that the global epoch
//     still equals e (epochEnter re-checks after incrementing; on mismatch
//     it rolls back and retries). A validated pin in slot e%3 blocks the
//     advance e+1 -> e+2, which inspects exactly that slot. Hence while any
//     reader is pinned at e, the global epoch cannot exceed e+1.
//   - Buffers retired while the global epoch read r become reusable once
//     the epoch reaches r+2. Any reader that could have loaded the pruned
//     revision was pinned at some epoch p <= r (the epoch is monotonic and
//     the unlink precedes the retire), and p's pin blocks the epoch below
//     p+2 <= r+2 until that reader exits.
//   - Slot recycling (epoch e and e+3 share slot e%3) is safe because the
//     advance to e+2 verified slot e%3 empty, and no reader can pin e%3
//     again before the epoch reaches e+3.
//
// Epoch advancing is lazy and opportunistic: retiring threads attempt it
// when their limbo shard grows (recycler.retireMany). A failed attempt is free;
// a stalled advance (a long-running scan holding a pin) only delays reuse,
// never correctness — limbo buffers are ordinary heap objects the Go GC
// can reclaim if the process drops the map.

// epochStripes is the number of census shards; a power of two comfortably
// above typical core counts so concurrent pins rarely collide.
const epochStripes = 32

// epochStripe is one shard of the reader census: a counter per epoch
// residue class, padded so neighboring stripes do not share a cache line.
type epochStripe struct {
	cnt [3]atomic.Int64
	_   [40]byte
}

var (
	// epochClock is the global reclamation epoch. It starts at 2 so the
	// r+2 reuse arithmetic never wraps below zero.
	epochClock atomic.Uint64
	epochRing  [epochStripes]epochStripe
)

func init() { epochClock.Store(2) }

// epochEnter pins the current epoch and returns the stripe and epoch to
// pass to epochExit. It never blocks: the retry loop only runs when the
// epoch advances concurrently, which the pin itself then prevents.
func epochEnter() (slot int, e uint64) {
	slot, e, _ = epochEnterRand()
	return slot, e
}

// epochEnterRand is epochEnter, additionally handing back the full random
// draw the stripe choice consumed only five bits of. Hot read paths reuse
// the spare bits for their sampling decisions (noteRead, noteSeek) instead
// of drawing a second random number per operation.
func epochEnterRand() (slot int, e uint64, rnd uint64) {
	rnd = rand.Uint64()
	slot = int(rnd & (epochStripes - 1))
	c := &epochRing[slot]
	for {
		e = epochClock.Load()
		c.cnt[e%3].Add(1)
		if epochClock.Load() == e {
			return slot, e, rnd
		}
		// The epoch moved between the load and the increment: the pin
		// may be in a slot the advancer already inspected. Roll back
		// and pin the new epoch instead.
		c.cnt[e%3].Add(-1)
	}
}

// epochExit releases a pin taken by epochEnter.
func epochExit(slot int, e uint64) {
	epochRing[slot].cnt[e%3].Add(-1)
}

// epochTryAdvance advances the global epoch by one step if no reader is
// still pinned in the previous epoch, and returns the (possibly unchanged)
// current epoch. Safe to call from any thread at any time.
func epochTryAdvance() uint64 {
	e := epochClock.Load()
	prev := (e - 1) % 3
	for i := range epochRing {
		if epochRing[i].cnt[prev].Load() != 0 {
			return e
		}
	}
	epochClock.CompareAndSwap(e, e+1)
	return epochClock.Load()
}
