package core

import "cmp"

// Stats is a point-in-time structural summary of the index, gathered by an
// O(n) walk of the base list. It powers the §4.3 claims in EXPERIMENTS.md
// (revision sizes settling around 35 under write-only load vs ~130 under
// read-mostly load; revision lists staying 2-4 long) and is intended for
// diagnostics, not hot paths.
type Stats struct {
	Nodes           int     // base-level nodes (including the base node)
	Entries         int     // entries in head revisions (newest state size)
	Revisions       int     // revisions reachable from heads (all branches)
	MaxRevisionList int     // longest revision list observed
	AvgRevisionSize float64 // mean entries per head revision
	MaxRevisionSize int
	MinRevisionSize int
	PendingOps      int // head revisions awaiting a final version
	IndexLevels     int // height of the skip-list index lanes

	// Payload-recycling diagnostics (recycle.go / epoch.go): pool hit and
	// miss counts for payload allocations, cumulative buffer bytes
	// returned to the pools, and the current global reclamation epoch.
	PoolHits      uint64
	PoolMisses    uint64
	RecycledBytes uint64
	Epoch         uint64

	// Version-seek telemetry (seek.go): roughly one in 64 snapshot point
	// reads is sampled, recording how many chain hops its boundary seek
	// took. The mean sampled seek depth is SeekSteps / SeekSamples; with
	// the back-skip pointers it stays logarithmic in the chain length
	// (MaxRevisionList) instead of tracking it linearly.
	SeekSamples uint64
	SeekSteps   uint64
}

// Stats walks the structure concurrently with other operations; the numbers
// are a consistent-enough sample, not a snapshot.
func (m *Map[K, V]) Stats() Stats {
	// Pin the epoch: a head read here may be pruned and retired mid-walk,
	// and its arrays must not be released before its size is read.
	slot, epoch := epochEnter()
	defer epochExit(slot, epoch)
	var s Stats
	s.MinRevisionSize = int(^uint(0) >> 1)
	for nd := m.base; nd != nil; nd = nd.next.Load() {
		if nd.terminated.Load() || nd.kind == nodeTempSplit {
			continue
		}
		s.Nodes++
		head := nd.head.Load()
		if head.kind == revTerminator {
			continue
		}
		if head.pending() {
			s.PendingOps++
		}
		sz := head.size()
		s.Entries += sz
		if sz > s.MaxRevisionSize {
			s.MaxRevisionSize = sz
		}
		if sz < s.MinRevisionSize {
			s.MinRevisionSize = sz
		}
		depth := chainDepth(head, 1024)
		s.Revisions += depth
		if depth > s.MaxRevisionList {
			s.MaxRevisionList = depth
		}
	}
	if s.Nodes > 0 {
		s.AvgRevisionSize = float64(s.Entries) / float64(s.Nodes)
	}
	if s.MinRevisionSize == int(^uint(0)>>1) {
		s.MinRevisionSize = 0
	}
	for h := m.topIndex.Load(); h != nil; h = h.down {
		s.IndexLevels++
	}
	rs := m.rec.stats()
	s.PoolHits = rs.PoolHits
	s.PoolMisses = rs.PoolMisses
	s.RecycledBytes = rs.RecycledBytes
	s.Epoch = rs.Epoch
	s.SeekSamples = m.seekSamples.Load()
	s.SeekSteps = m.seekSteps.Load()
	return s
}

// chainDepth counts revisions on the (left) chain from r, bounded to keep
// the walk cheap under races. The bound is high enough that the
// snapshot-pinned deep chains the version-seek structure targets still
// show their real length in MaxRevisionList.
func chainDepth[K cmp.Ordered, V any](r *revision[K, V], limit int) int {
	n := 0
	for r != nil && n < limit {
		n++
		r = r.next.Load()
	}
	return n
}
