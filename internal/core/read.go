package core

import (
	"cmp"
	"math"
)

// newestVersion makes get() read the most recent committed state
// (Algorithm 2: NEWEST_VERSION).
const newestVersion = math.MaxInt64

// Get returns the most recent value stored for key. Get is linearizable:
// it returns the value of the last update whose final version number was
// assigned before Get's own linearization point, and never observes a
// pending (not yet linearized) update.
func (m *Map[K, V]) Get(key K) (V, bool) {
	return m.get(key, newestVersion)
}

// get implements both lookup variants of Algorithm 2. Reads help complete
// pending structure modifications they encounter (temp-split nodes, merge
// terminators) but — on the newest-version path — never regular updates.
// The epoch pin brackets every payload access: revisions pruned and
// retired concurrently stay readable until the pin is released (epoch.go).
func (m *Map[K, V]) get(key K, snap int64) (V, bool) {
	slot, epoch, rnd := epochEnterRand()
	defer epochExit(slot, epoch)
	var headRev *revision[K, V]
	for {
		nd := m.findNodeForKey(key)
		if nd.kind == nodeTempSplit {
			m.helpSplit(nd.parent, nd.lrev) // Figure 3e-f
			continue
		}
		nextNode := nd.next.Load()
		headRev = nd.head.Load()
		if headRev.kind == revTerminator {
			m.helpMergeTerminator(headRev) // Figure 4c-e
			continue
		}
		// Re-validate that the node still covers key: a concurrent
		// split may have moved key's range to a new node between the
		// find and the head load (Algorithm 2, lines 14-15).
		if nx := nd.next.Load(); nx != nextNode || (nx != nil && nx.covers(key)) {
			continue
		}
		break
	}
	var rev *revision[K, V]
	if snap == newestVersion {
		rev = m.getNewestRevision(headRev, key)
	} else {
		var steps int
		rev, steps = m.seekRevision(headRev, key, snap)
		m.noteSeek(steps, rnd)
	}
	m.noteRead(headRev, rnd)
	if rev == nil {
		var zero V
		return zero, false
	}
	return rev.get(key, m.opts.Hash)
}

// getNewestRevision walks the revision list and returns the first revision
// from a completed update (positive version). Merge revisions route the
// walk into the branch that owns key (Algorithm 2, lines 25-34).
//
// A walk that ends at nil re-reads the pending revision it last stepped
// past. Pruning only cuts the chain below a committed revision, so a nil
// successor under a revision that was pending a moment ago means that
// revision's update committed and its GC cut the chain in between — the
// skipped revision is then the newest committed state, and the lookup
// linearizes just after its commit. Reporting the key absent there would be
// a false miss.
func (m *Map[K, V]) getNewestRevision(headRev *revision[K, V], key K) *revision[K, V] {
	var skipped *revision[K, V]
	for rev := headRev; rev != nil; {
		if rev.ver() > 0 {
			return redirectSplit(rev, key)
		}
		skipped = rev
		if rev.kind == revMerge && key >= rev.rightKey {
			rev = rev.rightNext.Load()
		} else {
			rev = rev.next.Load()
		}
	}
	if skipped != nil && skipped.ver() > 0 {
		return redirectSplit(skipped, key)
	}
	return nil
}

// redirectSplit routes a lookup that resolved to a split revision into the
// sibling that owns key. The two halves share one version (the left
// sibling's field), so whichever half the walk lands on, the sibling is
// equally visible; only the payload differs.
func redirectSplit[K cmp.Ordered, V any](rev *revision[K, V], key K) *revision[K, V] {
	switch rev.kind {
	case revLeftSplit:
		if key >= rev.splitKey {
			return rev.sibling
		}
	case revRightSplit:
		if key < rev.splitKey {
			return rev.sibling
		}
	}
	return rev
}
