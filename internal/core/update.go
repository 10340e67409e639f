package core

// Put sets the value for key, overwriting any previous value. Put is
// linearizable; its linearization point is the assignment of the final
// version number to the revision it creates (§3.4).
func (m *Map[K, V]) Put(key K, val V) { m.PutVersioned(key, val) }

// PutVersioned is Put, but additionally reports the final version number
// the update committed at. The version ties the update to the snapshot
// order: every snapshot whose version is >= the returned value observes
// the update, every older snapshot does not. The durability layer relies
// on this to tag write-ahead-log records so that replay agrees with a
// checkpoint's snapshot cut.
func (m *Map[K, V]) PutVersioned(key K, val V) int64 {
	slot, epoch := epochEnter()
	defer epochExit(slot, epoch)
	var newRev *revision[K, V]
	var gcNode *node[K, V]
	for {
		nd := m.findNodeForKey(key)
		if nd.kind == nodeTempSplit {
			m.helpSplit(nd.parent, nd.lrev) // Figure 3e-f
			continue
		}
		nextNode := nd.next.Load()
		headRev := nd.head.Load()
		if nd.terminated.Load() {
			continue // ready to unlink; find again
		}
		if headRev.kind == revTerminator {
			m.helpMergeTerminator(headRev) // Figure 4c-e
			continue
		}
		if headRev.pending() {
			m.helpPendingUpdate(headRev)
			continue
		}
		// A concurrent split may have completed between the find and
		// the head load, in which case key now belongs to the new
		// node: re-validate coverage (Algorithm 1, line 15).
		if nx := nd.next.Load(); nx != nextNode || (nx != nil && nx.covers(key)) {
			continue
		}

		optVer := -(m.clock.Read() + 1)
		_, present := headRev.find(key)
		newLen := headRev.size()
		if !present {
			newLen++
		}
		if m.shouldSplit(headRev, newLen) {
			lsr := m.makePutSplit(nd, headRev, key, val, optVer)
			if nd.head.CompareAndSwap(headRev, lsr) {
				m.helpSplit(nd, lsr) // Figure 3c-f
				newRev, gcNode = lsr, nd
				break
			}
			m.recycleSplitPair(lsr)
			continue
		}
		pl := m.clonePut(headRev, key, val)
		nr := m.newRevisionPl(revRegular, pl)
		nr.version.Store(optVer)
		nr.next.Store(headRev)
		m.linkSkip(nr, headRev)
		m.carryUpdateStats(&nr.stats, &headRev.stats)
		if nd.head.CompareAndSwap(headRev, nr) {
			newRev, gcNode = nr, nd
			break
		}
		// CAS failed: nobody saw our attempt; the payload was never
		// published and goes straight back to the pool (§3.3.2).
		m.rec.recycleNow(pl)
	}
	ver := m.finalize(newRev)
	m.performGC(gcNode, newRev)
	return ver
}

// Remove deletes key and reports whether it was present. Like put, its
// linearization point is the final version-number assignment; a remove of
// an absent key linearizes at the head-revision read that observed absence.
func (m *Map[K, V]) Remove(key K) bool {
	_, present := m.RemoveVersioned(key)
	return present
}

// RemoveVersioned is Remove, but additionally reports the final version
// number the remove committed at (see PutVersioned for what the version
// means). A remove of an absent key performs no update and reports version
// zero.
func (m *Map[K, V]) RemoveVersioned(key K) (int64, bool) {
	slot, epoch := epochEnter()
	defer epochExit(slot, epoch)
	var newRev *revision[K, V]
	var gcNode *node[K, V]
	for {
		nd := m.findNodeForKey(key)
		if nd.kind == nodeTempSplit {
			m.helpSplit(nd.parent, nd.lrev)
			continue
		}
		nextNode := nd.next.Load()
		headRev := nd.head.Load()
		if nd.terminated.Load() {
			continue
		}
		if headRev.kind == revTerminator {
			m.helpMergeTerminator(headRev)
			continue
		}
		if headRev.pending() {
			m.helpPendingUpdate(headRev)
			continue
		}
		if nx := nd.next.Load(); nx != nextNode || (nx != nil && nx.covers(key)) {
			continue
		}
		if _, present := headRev.find(key); !present {
			return 0, false // nothing to do (Algorithm 1, line 39)
		}

		optVer := -(m.clock.Read() + 1)
		newLen := headRev.size() - 1
		if m.shouldMerge(nd, headRev, newLen) {
			mt := &revision[K, V]{kind: revTerminator, node: nd, prevRev: headRev, remKey: key, remHasKey: true}
			mt.version.Store(optVer)
			if nd.head.CompareAndSwap(headRev, mt) {
				m.helpMergeTerminator(mt) // Figure 4c-e
				newRev = mt.mergeRev.Load()
				gcNode = newRev.node // the predecessor the node merged into
				break
			}
			continue
		}
		pl := m.cloneRemove(headRev, key)
		nr := m.newRevisionPl(revRegular, pl)
		nr.version.Store(optVer)
		nr.next.Store(headRev)
		m.linkSkip(nr, headRev)
		m.carryUpdateStats(&nr.stats, &headRev.stats)
		if nd.head.CompareAndSwap(headRev, nr) {
			newRev, gcNode = nr, nd
			break
		}
		m.rec.recycleNow(pl)
	}
	ver := m.finalize(newRev)
	m.performGC(gcNode, newRev)
	return ver, true
}

// finalize assigns the final version number to a (non-batch) revision: the
// paper's lines 29-31 of Algorithm 1. It is idempotent and safe to race;
// the first trySetVersion CAS wins and is the operation's linearization
// point. Right split revisions share their sibling's version field, so
// finalization always targets the left sibling.
func (m *Map[K, V]) finalize(rev *revision[K, V]) int64 {
	if rev == nil {
		return 0
	}
	if rev.desc != nil {
		return m.finalizeDesc(rev.desc)
	}
	if rev.kind == revRightSplit {
		rev = rev.sibling
	}
	v := rev.version.Load()
	if v > 0 {
		return v
	}
	fin := m.clock.Read()
	if o := -v; o > fin {
		// Ensure the invariant fin >= |optVer| (§3.2) and wait until
		// the clock catches up (waitUntil; with a nanosecond clock
		// this branch is effectively never taken, as the paper
		// observes).
		fin = o
		m.clock.ReadAtLeast(fin)
	}
	if rev.version.CompareAndSwap(v, fin) {
		return fin
	}
	return rev.version.Load()
}

// helpPendingUpdate completes the update operation that created rev, using
// the same logic as put, remove or batch update (§3.3.2). On return the
// operation has linearized (its final version number is set).
func (m *Map[K, V]) helpPendingUpdate(rev *revision[K, V]) {
	if rev.desc != nil {
		m.helpBatch(rev.desc)
		return
	}
	switch rev.kind {
	case revRegular:
		m.finalize(rev)
	case revLeftSplit:
		m.helpSplit(rev.node, rev)
		m.finalize(rev)
	case revRightSplit:
		m.helpSplit(rev.sibling.node, rev.sibling)
		m.finalize(rev.sibling)
	case revMerge:
		// rev is the merge's revision (it won the head CAS); its
		// installer may not have published it on the terminator yet.
		rev.mt.mergeRev.CompareAndSwap(nil, rev)
		m.completeMerge(rev.mt)
	case revTerminator:
		m.helpMergeTerminator(rev)
	}
}

// makePutSplit builds the pair of split revisions for a put that triggers a
// node split: the update is folded into one of the halves so no revision is
// created unnecessarily (§3.3.1). It returns the left split revision, ready
// to be CASed in; the right sibling is reachable through it.
func (m *Map[K, V]) makePutSplit(nd *node[K, V], headRev *revision[K, V], key K, val V, optVer int64) *revision[K, V] {
	combined := m.clonePut(headRev, key, val)
	return m.makeSplitPair(nd, headRev, combined, optVer, nil)
}

// makeSplitPair builds left/right split revisions over the given combined
// payload, which it consumes (the halves are copied out and the combined
// buffer recycled as scratch — it was never published). Exactly one of
// optVer (single-key ops) and desc (batch updates) carries the version.
func (m *Map[K, V]) makeSplitPair(nd *node[K, V], headRev *revision[K, V], combined *payload[K, V], optVer int64, desc *batchDesc[K, V]) *revision[K, V] {
	// Both split revisions will reference headRev as their successor, so
	// headRev's tail becomes reachable from two chains: mark it before the
	// installing CAS can publish the second entry point, so no pruner ever
	// retires at or below it. A failed CAS removes its own mark in
	// recycleSplitPair; writes below the head stay exclusive either way,
	// because pruners reach that region only under this node's gcBusy
	// (right-node pruners recurse through the ownership barrier, gc.go).
	headRev.sharedCnt.Add(1)
	lpl, rpl, splitKey := m.splitPayloads(combined)
	m.rec.recycleNow(combined)
	lsr := m.newRevisionPl(revLeftSplit, lpl)
	rsr := m.newRevisionPl(revRightSplit, rpl)
	lsr.sibling, rsr.sibling = rsr, lsr
	lsr.splitKey, rsr.splitKey = splitKey, splitKey
	lsr.node = nd
	lsr.desc, rsr.desc = desc, desc
	if desc == nil {
		lsr.version.Store(optVer)
		// rsr's version is read through the sibling (single
		// linearization point for both halves).
	}
	lsr.next.Store(headRev)
	rsr.next.Store(headRev)
	m.carryUpdateStats(&lsr.stats, &headRev.stats)
	m.carryUpdateStats(&rsr.stats, &headRev.stats)
	return lsr
}

// recycleSplitPair returns both halves' payloads of a split pair whose
// installing CAS failed — neither revision was ever published — and
// removes this attempt's shared mark from the would-be successor (a
// concurrent attempt's mark, if any, stays: the count only reaches zero
// when no attempt against that head is in flight or succeeded).
func (m *Map[K, V]) recycleSplitPair(lsr *revision[K, V]) {
	if headRev := lsr.next.Load(); headRev != nil {
		headRev.sharedCnt.Add(-1)
	}
	m.rec.recycleNow(lsr.pl)
	m.rec.recycleNow(lsr.sibling.pl)
}
