package core

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestGetNewestSurvivesCommitCut replays the interleaving behind a false
// "not found" from Get: the newest-version walk reads a pending batch head,
// steps past it, and only then loads head.next — by which time the batch
// has committed and its batchGC has cut the chain below the head. The walk
// must not report the key absent: the head it skipped is final by then.
//
// The window is a few instructions wide, so the test widens it with the
// scheduler: on one P, a reader spins on the walk over a captured pending
// head until the runtime preempts it, and the preempted reader's next
// loads happen only after the main goroutine has committed and pruned.
// Preemption lands inside the window in a fair share of trials.
func TestGetNewestSurvivesCommitCut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := New[int, int]()
	for k := 0; k < 64; k++ {
		m.Put(k, k)
	}
	const key = 17
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		desc := newBatchDesc(normalizeBatch([]batchEntry[int, int]{{key: key, val: 1000 + trial}}))
		desc.version.Store(-(m.clock.Read() + 1))
		m.applyBatchDesc(desc)
		head := m.findNodeForKey(key).head.Load()
		if head.desc != desc || !head.pending() {
			t.Fatalf("trial %d: batch head not installed pending", trial)
		}
		var stop, missed atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			slot, e := epochEnter()
			defer epochExit(slot, e)
			for !stop.Load() {
				if m.getNewestRevision(head, key) == nil {
					missed.Store(true)
					return
				}
			}
		}()
		runtime.Gosched() // the reader runs until it is preempted
		m.finalizeDesc(desc)
		m.batchGC(desc)
		stop.Store(true)
		<-done
		if missed.Load() {
			t.Fatalf("trial %d: newest-version walk lost key %d under a batch that committed mid-walk", trial, key)
		}
		if v, ok := m.Get(key); !ok || v != 1000+trial {
			t.Fatalf("trial %d: Get(%d) = %d, %v", trial, key, v, ok)
		}
	}
}
