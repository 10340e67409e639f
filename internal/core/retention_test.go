package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tsc"
)

// boxed is a pointer value whose collection the retention test observes
// through a finalizer. It is sized above the tiny allocator's 16 bytes so
// every value is an object of its own.
type boxed struct {
	n   int
	pad [48]byte
}

// drainAll advances the reclamation epoch past everything parked in m's
// limbo and drains every shard, as a quiescent map's next few retires
// would.
func (m *Map[K, V]) drainAll() {
	for i := 0; i < 4; i++ {
		now := epochTryAdvance()
		for s := range m.rec.limbo {
			m.rec.drainShard(&m.rec.limbo[s], now)
		}
	}
}

// TestRetiredRevisionsReleaseValues churns two pointer-valued maps with
// default Options (chain seek and recycling on) through Put, single-map
// BatchUpdate and two-map MultiBatchUpdate, matures the epoch and collects
// garbage, then counts the overwritten values the maps still keep
// reachable. Pruned revision structs stay reachable through skip pointers
// and frozen next chains, and batch revisions through their descriptor;
// unless retirement releases their pointer-bearing arrays and committed
// descriptors drop their entries, the dead values they reference run at
// several times the live count. What may legitimately remain is the
// history Go's collector still owns: shared pre-split heads and the split
// revisions that reference them.
func TestRetiredRevisionsReleaseValues(t *testing.T) {
	var created, finalized atomic.Int64
	val := func(n int) *boxed {
		v := &boxed{n: n}
		created.Add(1)
		runtime.SetFinalizer(v, func(*boxed) { finalized.Add(1) })
		return v
	}
	clock := tsc.NewMonotonic()
	a := New[string, *boxed](Options[string]{Clock: clock})
	b := New[string, *boxed](Options[string]{Clock: clock})
	const keys = 1024
	key := func(i int) string { return fmt.Sprintf("key-%05d", i) }

	for i := 0; i < keys; i++ {
		a.Put(key(i), val(i))
		b.Put(key(i), val(i))
	}
	for round := 0; round < 12; round++ {
		for i := 0; i < keys; i++ {
			a.Put(key(i), val(i))
		}
		for i := 0; i < keys; i += 8 {
			bt := NewBatch[string, *boxed](8)
			for j := i; j < i+8; j++ {
				bt.Put(key(j), val(j))
			}
			b.BatchUpdate(bt)
		}
		for i := 0; i < keys; i += 8 {
			ba := NewBatch[string, *boxed](4)
			bb := NewBatch[string, *boxed](4)
			for j := i; j < i+4; j++ {
				ba.Put(key(j), val(j))
				bb.Put(key(j+4), val(j+4))
			}
			MultiBatchUpdate(
				MapBatch[string, *boxed]{Map: a, Batch: ba},
				MapBatch[string, *boxed]{Map: b, Batch: bb},
			)
		}
	}

	const live = 2 * keys
	// Split history left to Go's collector: a right split revision that
	// is still a node's head keeps its left sibling and their shared
	// pre-split predecessor reachable, at most a few revisions' worth of
	// entries in all once the splits have been overwritten. The parent
	// design kept several times the live count.
	bound := int64(live / 4)
	var dead int64
	for i := 0; i < 20; i++ {
		a.drainAll()
		b.drainAll()
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		dead = created.Load() - finalized.Load() - live
		if dead <= bound {
			break
		}
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
	if a.Len() != keys || b.Len() != keys {
		t.Fatalf("Len = %d, %d; want %d each", a.Len(), b.Len(), keys)
	}
	t.Logf("created %d values, %d live, %d overwritten still reachable (bound %d)",
		created.Load(), live, dead, bound)
	if dead > bound {
		t.Fatalf("%d overwritten values still reachable after GC, want <= %d (live %d)", dead, bound, live)
	}
}

// TestConcurrentPointerPayloads is the race-detector workload for
// pointer-bearing payloads (string keys, []byte values), whose retired
// revisions have their arrays released at epoch maturity rather than
// recycled. Put, BatchUpdate, two-map MultiBatchUpdate, Get, snapshot Get
// and snapshot Range run together on one map with default Options and one
// with tiny revisions (split and merge churn); snapshots are held across
// many updates so reads seek through long chains and frozen skip paths
// while pruned revisions mature. Every value names its key, so a read that
// reached a released or reused array shows up as a mismatch (or, under
// -race, as a reported race).
func TestConcurrentPointerPayloads(t *testing.T) {
	clock := tsc.NewMonotonic()
	a := New[string, []byte](Options[string]{Clock: clock})
	b := New[string, []byte](Options[string]{Clock: clock, FixedRevisionSize: 8})
	const keySpace = 300
	key := func(i int) string { return "k" + strconv.Itoa(1000+i) }
	val := func(k string, n int) []byte { return []byte(k + ":" + strconv.Itoa(n)) }
	check := func(k string, v []byte) {
		if !bytes.HasPrefix(v, []byte(k+":")) {
			t.Errorf("key %q read value %q", k, v)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < stressGoroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 0xb17e))
			held := a.Snapshot()
			defer func() { held.Close() }()
			for i := 0; i < 4000; i++ {
				m := a
				if rng.IntN(2) == 0 {
					m = b
				}
				k := key(rng.IntN(keySpace))
				switch rng.IntN(10) {
				case 0, 1, 2:
					m.Put(k, val(k, i))
				case 3:
					m.Remove(k)
				case 4:
					if v, ok := m.Get(k); ok {
						check(k, v)
					}
				case 5:
					bt := NewBatch[string, []byte](6)
					for j := 0; j < 6; j++ {
						kk := key(rng.IntN(keySpace))
						bt.Put(kk, val(kk, i))
					}
					m.BatchUpdate(bt)
				case 6:
					ba := NewBatch[string, []byte](4)
					bb := NewBatch[string, []byte](4)
					for j := 0; j < 4; j++ {
						ka, kb := key(rng.IntN(keySpace)), key(rng.IntN(keySpace))
						ba.Put(ka, val(ka, i))
						bb.Put(kb, val(kb, i))
					}
					MultiBatchUpdate(
						MapBatch[string, []byte]{Map: a, Batch: ba},
						MapBatch[string, []byte]{Map: b, Batch: bb},
					)
				case 7:
					// The held snapshot must read the same value every
					// time, however far the chain has moved on.
					v1, ok1 := held.Get(k)
					runtime.Gosched()
					v2, ok2 := held.Get(k)
					if ok1 != ok2 || !bytes.Equal(v1, v2) {
						t.Errorf("held snapshot read %q=%q,%v then %q,%v", k, v1, ok1, v2, ok2)
					}
					if ok1 {
						check(k, v1)
					}
				case 8:
					s := m.Snapshot()
					prev := ""
					s.Range(k, key(keySpace), func(kk string, v []byte) bool {
						if kk <= prev {
							t.Errorf("range out of order: %q after %q", kk, prev)
						}
						prev = kk
						check(kk, v)
						return true
					})
					s.Close()
				default:
					if rng.IntN(8) == 0 {
						held.Close()
						held = a.Snapshot()
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, errs := range [][]error{CheckInvariants(a), CheckInvariants(b)} {
		for _, err := range errs {
			t.Error(err)
		}
	}
}
