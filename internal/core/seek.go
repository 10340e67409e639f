package core

// Version seeks: O(log k) access into long revision chains.
//
// A node's revision list is sorted by (eventual) final version, newest
// first: an update installs its revision only after the previous head has
// linearized, and final versions are clock reads taken after installation.
// Snapshot reads, snapshot scans and the iterator refill path all need the
// *boundary* revision for a version v — the newest revision with final
// version <= v — and previously found it by walking the chain one link at
// a time, O(chain) per lookup. Long chains are exactly the snapshot-heavy
// case (every live snapshot pins one boundary, so k snapshots can hold a
// k-deep chain), which made the paper's snapshot workloads quadratic-ish.
//
// Every regular revision therefore carries one extra pointer, skip, laid
// out in Fenwick spacing: the revision at run position n points n-lowbit(n)
// positions down the chain. A seek jumps through skip whenever the jump
// target is still invisible to the version being sought, and falls back to
// single next steps otherwise — the classic Fenwick prefix descent,
// O(log k) hops on an intact run. Positions restart at structural (split,
// merge, terminator) revisions and skips never cross them, so the
// key-dependent branch at merge revisions is always taken explicitly.
//
// Why jumping is safe against the inner GC (gc.go) and the payload
// recycler (recycle.go):
//
//   - A jump is taken only when the target is invisible at the sought
//     version v (final or eventual version > v). Versions descend along
//     the chain, so everything jumped over is invisible too — including
//     pending revisions, whose final version is bounded below by their
//     optimistic value.
//   - Skip pointers may lead into revisions the GC has already unlinked
//     ("frozen" paths). That is harmless: revision structs are never
//     recycled (only payload buffers are, and a pointer-bearing map's
//     arrays are released), and intermediate hops read only version
//     fields and chain pointers — never keys or values. The first *visible*
//     revision reached on any frozen path is provably the live boundary:
//     a dropped revision d with d.ver <= v had, at drop time, a kept
//     revision k with d.ver < k.ver <= v above it (otherwise the GC's
//     snapshot/horizon/pin-floor rules — v is registered, or v >= the
//     GC's horizon — would have kept d), and k is on every frozen path
//     that still reaches d, so the walk stops at k (or something newer)
//     first and never returns d. Hence the returned revision is live,
//     its payload protected by the reader's registration, and the
//     reader's epoch pin covers the unlink race as before.
//
// linkSkip costs O(1) amortized per update (the walk from the previous
// head to the Fenwick target retraces low-bit hops) and zero allocations.
//
// Memory: a live revision's skip pointer can retain pruned revision
// *structs* — the frozen path from its target down to the next live
// revision (dropped revisions' next pointers are deliberately never
// severed; the frozen-path lemma above depends on them). The retained
// shells hold no live payload once their retirement epoch has matured: a
// pointer-free map has recycled their buffers, a pointer-bearing map has
// cleared their keys/vals headers (recycle.go drainShard), so the dead
// entries they referenced are garbage. Revisions the inner GC leaves to Go's
// collector (shared pre-split heads, non-regular revisions, limbo
// overflow, DisableRecycling) keep their arrays while reachable. The
// retention of the shells themselves is transient — the web becomes
// unreachable when the
// retaining revision is itself pruned — but in the worst case (a long
// pinned chain released at once) one GC pass can leave a whole dropped
// segment, O(chain at drop time), reachable until the next prune of that
// node. In steady state chains are 2-4 long and the overhang is a few
// ~100-byte structs per node.

// invisibleAt reports whether a revision whose ver() returned v is
// certainly invisible to version snap: committed above snap, or pending
// with an optimistic bound above snap (the final version can only land
// higher). Pending revisions that may yet commit at or below snap report
// false and must be helped by the caller.
func invisibleAt(v, snap int64) bool {
	return v > snap || (v < 0 && -v > snap)
}

// linkSkip assigns nr's run position and back-skip pointer, given that nr
// is about to be published on top of head. Must run before the installing
// CAS (the fields are immutable after publication); a failed CAS simply
// discards them with the revision. Structural heads (and disabled seeking)
// leave nr starting a fresh run with the zero values.
func (m *Map[K, V]) linkSkip(nr, head *revision[K, V]) {
	if m.opts.DisableChainSeek || head == nil || head.kind != revRegular {
		return
	}
	pos := head.skipPos + 1
	nr.skipPos = pos
	target := pos - pos&(-pos) // clear the lowest set bit
	cur := head
	// Retrace the previous head's skip chain down to the Fenwick target.
	// Mid-chain pruning can have removed the exact position — any deeper
	// revision of the same chain is still a correct (just differently
	// spaced) target, so the walk stops at whatever it lands on. The hop
	// bound keeps a torn chain from turning an install into a long walk.
	for hops := 0; cur.skipPos > target && cur.kind == revRegular && hops < 32; hops++ {
		nxt := cur.skip
		if nxt == nil {
			nxt = cur.next.Load()
		}
		if nxt == nil {
			break
		}
		cur = nxt
	}
	nr.skip = cur
}

// seekRevision returns the boundary revision for snap on the chain hanging
// off headRev — the newest revision with final version <= snap, routed into
// the branch owning key at merge revisions and redirected across split
// pairs — or nil when the whole history is newer than snap or key was never
// present. Pending revisions that may belong to snap are helped to
// completion first (§3.2). steps counts chain hops (jumps and single steps
// alike) for the seek-depth telemetry.
func (m *Map[K, V]) seekRevision(headRev *revision[K, V], key K, snap int64) (rev *revision[K, V], steps int) {
	r := headRev
	for r != nil {
		v := r.ver()
		if v < 0 && -v <= snap {
			m.helpPendingUpdate(r)
			v = r.ver()
		}
		if v > 0 && v <= snap {
			return redirectSplit(r, key), steps
		}
		steps++
		if r.kind == revMerge && key >= r.rightKey {
			r = r.rightNext.Load()
			continue
		}
		if s := r.skip; s != nil && invisibleAt(s.ver(), snap) {
			r = s
			continue
		}
		r = r.next.Load()
	}
	return nil, steps
}

// noteSeek feeds the sampled seek-depth telemetry: rnd is the operation's
// epoch-pin random draw, reused so the read path never draws twice. Bits
// 16-21 select roughly one in 64 seeks; the two counters land in Stats as
// SeekSamples / SeekSteps.
func (m *Map[K, V]) noteSeek(steps int, rnd uint64) {
	if (rnd>>16)&63 != 0 {
		return
	}
	m.seekSamples.Add(1)
	m.seekSteps.Add(uint64(steps))
}
