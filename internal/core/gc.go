package core

import (
	"cmp"
	"math"
	"runtime"
	"sort"
)

// performGC is Jiffy's inner garbage collector (§3.3.4): after an update
// completes at a node it removes, from that node's revision list, every
// revision that can never be read again. A revision survives only if it is
// the newest one (the head of the chain being pruned) or it is the newest
// revision visible to some registered snapshot — everything else is snipped
// out mid-chain. Unlike the Java original, which delegates all reclamation
// to the JVM, pruned revisions are retired into the epoch-gated recycler
// (recycle.go) so the next updates reuse their payload buffers instead of
// allocating, and so a pointer-bearing map's pruned revisions — which stay
// reachable through skip pointers and frozen next chains (seek.go) — stop
// pinning dead keys and values once no reader can see them.
//
// Recycling is only sound if an unlink is definitive — a concurrent pruner
// of the same chain could otherwise re-store a pointer to a revision whose
// buffers were already handed out (and epoch advance would not save the
// reader that follows it). Two rules establish that:
//
//   - pruning a node's chain requires the node's gcBusy flag (a trylock; a
//     busy node simply skips this GC round — pruning is opportunistic), so
//     at most one pruner walks a node's chain at a time;
//   - retirement stops at the first revision marked shared (the pre-split
//     head both split revisions reference): below it the chain is reachable
//     from two nodes' chains, whose pruners hold different locks. Those
//     revisions — and non-regular revisions, whose payloads can be reached
//     through sibling or branch pointers — are left to Go's collector.
//
// Merge right branches are pruned under the merged-away node's own gcBusy
// (pruneBranches): the node object outlives the merge precisely so its flag
// keeps excluding the stale pruner of a pre-merge update.
func (m *Map[K, V]) performGC(nd *node[K, V], head *revision[K, V]) {
	if nd == nil || head == nil {
		return
	}
	m.pruneNodeChain(nd, head)
}

// pruneNodeChain is the exclusive per-node prune shared by performGC and
// batchGC. The gcWant handshake: demand is recorded before trying the
// lock, so if the holder is mid-prune (possibly descheduled), it re-prunes
// from the fresh head before quitting and a skipped GC never leaves the
// chain's growth behind. The order closes the lost-wakeup race — a failed
// CAS implies the holder releases afterwards, hence re-checks gcWant
// after this store.
func (m *Map[K, V]) pruneNodeChain(nd *node[K, V], head *revision[K, V]) {
	nd.gcWant.Store(true)
	for try := 0; !nd.gcBusy.CompareAndSwap(false, true); try++ {
		if try >= 2 {
			return // the holder will observe gcWant and catch up
		}
		// Yield before giving up: on an oversubscribed scheduler the
		// holder is likely descheduled mid-prune, and donating the
		// quantum lets it finish (and observe gcWant) instead of letting
		// the chain grow for a whole scheduling round.
		runtime.Gosched()
	}
	for attempt := 0; ; attempt++ {
		nd.gcWant.Store(false)
		// horizon is read before the registry scan: any snapshot
		// registration this GC fails to observe publishes a version read
		// after its push, hence after this horizon read (the clock is
		// machine-wide monotonic), so it is >= horizon and revisions at or
		// above the horizon's boundary must all survive. Registrations the
		// scan does observe either carry a published version (protected by
		// the snaps list) or are still pinned at a floor — such an entry
		// may yet publish any version >= its floor, so everything at or
		// above the floor's boundary is kept (pinFloor), while history
		// below the floor stays collectable.
		horizon := m.clock.Read()
		snaps, pinFloor := m.snaps.versions()
		var rs retireSet[K, V]
		if head.kind == revRightSplit {
			// The whole chain below this head is the pre-split node's
			// history (see the ownership barrier in pruneRevList, which
			// only guards *successor* right splits): walk it only under
			// the owner's lock too, or skip — nothing above the barrier
			// belongs to this node anyway.
			if owner := head.sibling.node; owner != nil && owner.gcBusy.CompareAndSwap(false, true) {
				m.pruneRevList(head, horizon, snaps, pinFloor, &rs)
				owner.gcBusy.Store(false)
			}
		} else {
			m.pruneRevList(head, horizon, snaps, pinFloor, &rs)
		}
		nd.gcBusy.Store(false)
		// Hand the claimed revisions to the recycler only now: the flag
		// is free, every unlink has committed, and the retire path's
		// locks and drains run outside the prune's critical section.
		m.rec.retireMany(rs.revs[:rs.n])
		// Catch up on growth that skipped past us while we held the flag
		// (bounded: each round starts from the then-current head).
		if attempt >= 8 || !nd.gcWant.Load() || nd.terminated.Load() {
			return
		}
		if !nd.gcBusy.CompareAndSwap(false, true) {
			return // a new holder took over; it saw (or will see) gcWant
		}
		if h := nd.head.Load(); h.kind != revTerminator {
			head = h
		} else {
			nd.gcBusy.Store(false)
			return
		}
	}
}

// versions returns the registered snapshot versions in ascending order,
// plus the smallest pin floor among entries that are still pinned (whose
// eventual version is not yet published; math.MaxInt64 when none are),
// pruning closed entries on the way. The common cases (no snapshots, or a
// handful) dominate; the slice is freshly allocated per call.
func (r *snapRegistry) versions() (snaps []int64, pinFloor int64) {
	pinFloor = math.MaxInt64
	var prev *snapEntry
	cur := r.head.Load()
	for cur != nil {
		next := cur.next.Load()
		if cur.closed.Load() {
			if prev != nil {
				prev.next.CompareAndSwap(cur, next)
			} else {
				r.head.CompareAndSwap(cur, next)
			}
			cur = next
			continue
		}
		if v := cur.version.Load(); v < 0 {
			pinFloor = min(pinFloor, -v)
		} else {
			snaps = append(snaps, v)
		}
		prev = cur
		cur = next
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return snaps, pinFloor
}

// anySnapIn reports whether some registered snapshot version s satisfies
// lo <= s < hi (snaps ascending).
func anySnapIn(snaps []int64, lo, hi int64) bool {
	i := searchKeys(snaps, lo)
	return i < len(snaps) && snaps[i] < hi
}

// anySnapBelow reports whether some registered snapshot version is < hi.
func anySnapBelow(snaps []int64, hi int64) bool {
	return len(snaps) > 0 && snaps[0] < hi
}

// retireSet collects, across one GC pass, every revision the prune dropped
// and claimed. The collector is handed to the recycler only after the pass
// releases its gcBusy flags: first, every unlink store has then committed,
// so the epoch tag taken at hand-off covers every reader that could still
// reach the revisions' arrays; second, the retire path's stripe mutex and
// limbo drains stay out of the prune's critical section — a pruner
// descheduled while holding gcBusy would otherwise block a node's pruning
// for whole scheduling rounds while updates pile up revisions.
//
// Claiming (the reclaimed CAS) happens at drop-decision time; that only
// assigns ownership, the revision enters the limbo at hand-off. Fixed
// capacity: prunes seldom drop more than a handful of revisions, and
// overflow merely leaves the excess to Go's GC.
type retireSet[K cmp.Ordered, V any] struct {
	revs [64]*revision[K, V]
	n    int
}

// add claims r for this collector if it is retire-eligible: a regular,
// unshared revision with a payload, not yet claimed by anyone.
func (s *retireSet[K, V]) add(r *revision[K, V]) {
	if s == nil || s.n == len(s.revs) {
		return
	}
	if r.kind != revRegular || r.pl == nil || r.shared() {
		return
	}
	if r.reclaimed.CompareAndSwap(false, true) {
		s.revs[s.n] = r
		s.n++
	}
}

// pruneRevList prunes the chain hanging off head (which is itself always
// kept: it is the newest revision, or a pending one every future reader may
// need). A deeper revision r, with the nearest kept newer revision at
// version keptVer, is needed iff some registered snapshot s satisfies
// r.ver <= s < keptVer — then r is exactly what a reader at s retrieves —
// or keptVer > pinFloor: a pinned registration may publish any version v
// >= its floor, and any v in [max(r.ver, pinFloor), keptVer) retrieves r.
// Kept merge revisions recurse into their right branch (the only route to
// the merged-away node's history); pending batch revisions and everything
// below them are left untouched.
//
// rs, when non-nil, reports that the caller holds the chain's gcBusy flag:
// unlinks here are definitive and dropped revisions' payloads are claimed
// into rs for retirement once the caller releases the flag. Retirement is
// switched off past the first shared revision; see performGC.
func (m *Map[K, V]) pruneRevList(head *revision[K, V], horizon int64, snaps []int64, pinFloor int64, rs *retireSet[K, V]) {
	retireOK := rs != nil && !head.shared()
	prevKept := head
	keptVer := head.ver()
	if keptVer < 0 {
		// head is still pending (a concurrent writer's revision batchGC
		// happened to load): its final version will be a clock read taken
		// in the future — at least |optimistic| but unbounded above — and
		// every reader whose version lands below that final value reads
		// the chain beneath it. Treating |optimistic| as the frontier
		// would let the tail-drop below free the newest committed
		// revision while a snapshot between |optimistic| and the eventual
		// final version still needs it. Treat the frontier as infinitely
		// new instead: the newest committed revision below survives
		// unconditionally and pruning continues normally beneath it.
		keptVer = math.MaxInt64
	}
	m.pruneBranches(head, keptVer, horizon, snaps, pinFloor, rs)
	r := head.next.Load()
	for r != nil {
		if keptVer <= horizon && keptVer <= pinFloor && !anySnapBelow(snaps, keptVer) {
			// The kept frontier is at or below the horizon and no
			// registered snapshot or pinned registration can see past
			// it: drop the whole remaining tail.
			prevKept.next.Store(nil)
			if retireOK {
				m.retireTail(r, rs)
			}
			return
		}
		v := r.ver()
		if v < 0 {
			// A pending revision mid-chain (a batch that has not
			// linearized yet): stop here, conservatively.
			prevKept.next.Store(r)
			return
		}
		if r.kind == revRightSplit {
			// Ownership barrier: everything below a right split revision
			// is the pre-split node's history, pruned (and possibly
			// retired) under the *left* sibling's node lock. Walking on
			// under this node's lock — even without retiring — could
			// re-link a revision the owner's pruner just claimed. Keep
			// the revision, and continue below it only if the owner's
			// lock is free (the same trylock discipline pruneBranches
			// uses for merge branches); otherwise the owner catches up.
			prevKept.next.Store(r)
			owner := r.sibling.node
			if owner != nil && owner.gcBusy.CompareAndSwap(false, true) {
				m.pruneRevList(r, horizon, snaps, pinFloor, rs)
				owner.gcBusy.Store(false)
			}
			return
		}
		// Keep r if (a) it is newer than the horizon or is the
		// horizon's boundary — an unobserved concurrent registration
		// (version >= horizon) may need exactly r; (b) it is the
		// boundary some registered snapshot reads; (c) a pinned
		// registration (eventual version >= its floor) may land in
		// [r.ver, keptVer); or (d) it is a merge revision (the only
		// route into the merged node's history) while anything below
		// the frontier is still live.
		needed := v > horizon ||
			(keptVer > horizon && v <= horizon) ||
			anySnapIn(snaps, v, keptVer) ||
			keptVer > pinFloor ||
			r.kind == revMerge
		if needed {
			prevKept.next.Store(r)
			if r.kind == revMerge {
				m.pruneBranches(r, v, horizon, snaps, pinFloor, rs)
			}
			prevKept = r
			keptVer = v
		} else if retireOK {
			rs.add(r)
		}
		if r.shared() {
			// Whether r was kept or dropped, the chain below it is
			// reachable from a second node's chain: stop retiring.
			// (Revisions already claimed sit above r and stay eligible.)
			retireOK = false
		}
		r = r.next.Load()
	}
	prevKept.next.Store(nil)
}

// retireTail retires the recyclable prefix of a fully dropped tail: regular,
// unshared revisions up to the first shared or structural one (whose
// payloads stay reachable through sibling or branch pointers and are left
// to Go's GC).
func (m *Map[K, V]) retireTail(r *revision[K, V], rs *retireSet[K, V]) {
	for ; r != nil; r = r.next.Load() {
		if r.kind != revRegular || r.shared() {
			return
		}
		rs.add(r)
	}
}

// pruneBranches prunes the right branch of a kept merge revision: drops it
// entirely when no snapshot or pinned registration is old enough to look
// below the revision's own version, otherwise prunes it recursively (the
// branch head is the newest revision any such snapshot retrieves on that
// side). The branch is the merged-away node's old chain; its gcBusy flag —
// the node object outlives the merge for exactly this — serializes the
// recursion against the stale performGC of an update that committed there
// just before the merge. If the flag is busy the branch is skipped; a later
// GC returns.
func (m *Map[K, V]) pruneBranches(r *revision[K, V], ver int64, horizon int64, snaps []int64, pinFloor int64, rs *retireSet[K, V]) {
	if r.kind != revMerge {
		return
	}
	right := r.rightNext.Load()
	if right == nil {
		return
	}
	if ver <= horizon && ver <= pinFloor && !anySnapBelow(snaps, ver) {
		// Dropping the branch pointer makes the branch unreachable from
		// this chain, but scans routed through the merge terminator still
		// reach it via prevRev: no retirement, Go's GC owns it.
		r.rightNext.Store(nil)
		return
	}
	o := r.mt.node
	if !o.gcBusy.CompareAndSwap(false, true) {
		return
	}
	// The branch walk claims into the caller's collector; hand-off to the
	// recycler happens after every flag in the pass is released.
	m.pruneRevList(right, horizon, snaps, pinFloor, rs)
	o.gcBusy.Store(false)
}
