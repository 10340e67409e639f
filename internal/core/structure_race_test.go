package core

import "testing"

// TestBatchSplitCompletesBeforeCommit replays a batch whose installer
// stalls between putting a split pair at a node's head and completing the
// split (helpSplit), while a helper drives the batch to commit. Once the
// batch commits, its split revisions are final and later updates stack on
// the node; if the right half were still unpublished, an update would
// rebuild the node from the left half alone and lose every key of the
// right half. A helper that passes a node holding one of the batch's split
// revisions must therefore complete the split before the batch commits.
func TestBatchSplitCompletesBeforeCommit(t *testing.T) {
	m := New[int, int](Options[int]{FixedRevisionSize: 2})
	for k := 1; k <= 3; k++ {
		m.Put(k, k)
	}
	desc := newBatchDesc(normalizeBatch([]batchEntry[int, int]{{key: 4, val: 40}}))
	desc.version.Store(-(m.clock.Read() + 1))

	// The installer: the batch's split pair goes in at the head, then the
	// installer stalls before helpSplit.
	nd := m.findNodeForKey(4)
	head := nd.head.Load()
	pl := m.applyBatchPl(head, desc.entries())
	if !m.shouldSplit(head, len(pl.keys)) {
		t.Fatalf("applying the batch to %d entries does not split", len(head.keys))
	}
	lsr := m.makeSplitPair(nd, head, pl, 0, desc)
	if !nd.head.CompareAndSwap(head, lsr) {
		t.Fatal("installing the split pair failed")
	}

	// A helper commits the batch; updates follow on both halves.
	m.helpBatch(desc)
	if desc.ver() <= 0 {
		t.Fatal("the helper did not commit the batch")
	}
	m.Put(5, 50)
	m.Put(0, 0)
	want := map[int]int{0: 0, 1: 1, 2: 2, 3: 3, 4: 40, 5: 50}
	check := func(when string) {
		t.Helper()
		for k, v := range want {
			if got, ok := m.Get(k); !ok || got != v {
				t.Errorf("%s: Get(%d) = %d, %v; want %d", when, k, got, ok, v)
			}
		}
	}
	check("after the helper's commit")

	// The installer resumes.
	m.helpSplit(nd, lsr)
	check("after the installer resumed")
	for _, err := range CheckInvariants(m) {
		t.Error(err)
	}
}

// TestPendingMergeRevisionIsHelpable replays a merge whose helper stalls
// between installing the merge revision at the predecessor's head and
// publishing it on the terminator (mt.mergeRev). An update that meets the
// pending merge revision at the head helps it complete; the revision it
// found is the merge's one, so the helper must publish it rather than
// dereference the unpublished pointer.
func TestPendingMergeRevisionIsHelpable(t *testing.T) {
	m := New[int, int](Options[int]{FixedRevisionSize: 2})
	for k := 1; k <= 4; k++ {
		m.Put(k, k)
	}
	m.Remove(3)
	o := m.findNodeForKey(4)
	if o.isBase {
		t.Fatal("keys 1..4 did not split into two nodes")
	}

	// Remove(4) empties o: install its merge terminator.
	head := o.head.Load()
	mt := &revision[int, int]{kind: revTerminator, node: o, prevRev: head, remKey: 4, remHasKey: true}
	mt.version.Store(-(m.clock.Read() + 1))
	if !o.head.CompareAndSwap(head, mt) {
		t.Fatal("installing the terminator failed")
	}

	// A merge helper installs the merge revision, then stalls before
	// publishing it on the terminator.
	pred := m.findPredOf(o.key)
	ph := pred.head.Load()
	rem := m.cloneRemove(mt.prevRev, mt.remKey)
	mr := m.newRevisionPl(revMerge, m.unionPayload(ph.keys, ph.vals, ph.hashes, rem.keys, rem.vals, rem.hashes))
	mr.rightKey = o.key
	mr.mt = mt
	mr.node = pred
	mr.next.Store(ph)
	mr.rightNext.Store(mt.prevRev)
	mr.version.Store(mt.version.Load())
	if !pred.head.CompareAndSwap(ph, mr) {
		t.Fatal("installing the merge revision failed")
	}

	m.Put(1, 10) // meets the pending merge revision at pred's head
	want := map[int]int{1: 10, 2: 2}
	for k := 1; k <= 4; k++ {
		got, ok := m.Get(k)
		if v, present := want[k]; ok != present || got != v {
			t.Errorf("Get(%d) = %d, %v; want %d, %v", k, got, ok, v, present)
		}
	}
	for _, err := range CheckInvariants(m) {
		t.Error(err)
	}
}
