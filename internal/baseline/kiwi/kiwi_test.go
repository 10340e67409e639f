package kiwi

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestBasic(t *testing.T) {
	m := New()
	if _, ok := m.Get(1); ok {
		t.Fatal("phantom")
	}
	m.Put(1, 10)
	m.Put(1, 11)
	if v, ok := m.Get(1); !ok || v != 11 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if !m.Remove(1) || m.Remove(1) {
		t.Fatal("remove semantics")
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("tombstone not respected")
	}
	m.Put(1, 12) // resurrect over tombstone
	if v, ok := m.Get(1); !ok || v != 12 {
		t.Fatalf("resurrect: %d,%v", v, ok)
	}
}

func TestSequentialReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 59))
		m := New()
		ref := map[uint32]uint32{}
		for i := 0; i < 800; i++ {
			k := uint32(rng.IntN(128))
			switch rng.IntN(3) {
			case 0:
				got := m.Remove(k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			case 1:
				m.Put(k, uint32(i))
				ref[k] = uint32(i)
			default:
				v, ok := m.Get(k)
				want, wantOK := ref[k]
				if ok != wantOK || (ok && v != want) {
					return false
				}
			}
		}
		return m.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkSplits(t *testing.T) {
	m := New()
	for i := 0; i < 3*maxChunk; i++ {
		m.Put(uint32(i), uint32(i))
	}
	chunks := 0
	for c := m.head.Load(); c != nil; c = c.next.Load() {
		chunks++
	}
	if chunks < 2 {
		t.Fatalf("no chunk splits after %d inserts", 3*maxChunk)
	}
	for i := 0; i < 3*maxChunk; i++ {
		if v, ok := m.Get(uint32(i)); !ok || v != uint32(i) {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestScanConsistentUnderUpdates(t *testing.T) {
	m := New()
	for i := uint32(0); i < 100; i++ {
		m.Put(i, 0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint32(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Writer keeps all keys equal, updating ascending: a
			// versioned scan must see a non-increasing sequence
			// (later keys updated after the scan version cannot be
			// ahead of earlier ones).
			for k := uint32(0); k < 100; k++ {
				m.Put(k, i)
			}
		}
	}()
	for round := 0; round < 300; round++ {
		prev := ^uint32(0)
		m.RangeFrom(0, func(k, v uint32) bool {
			if v > prev {
				t.Errorf("scan saw later update after earlier one: key %d: %d > %d", k, v, prev)
				return false
			}
			prev = v
			return true
		})
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentShardedReference(t *testing.T) {
	m := New()
	const goroutines, ops, space = 8, 2000, 256
	type final struct {
		val     uint32
		present bool
	}
	finals := make([]final, space)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 61))
			for i := 0; i < ops; i++ {
				k := uint32(rng.IntN(space/goroutines)*goroutines + g)
				switch rng.IntN(4) {
				case 0:
					m.Remove(k)
					finals[k] = final{}
				case 1:
					m.Get(k)
				default:
					v := uint32(g*ops + i)
					m.Put(k, v)
					finals[k] = final{v, true}
				}
			}
		}()
	}
	wg.Wait()
	for k, want := range finals {
		got, ok := m.Get(uint32(k))
		if ok != want.present || (ok && got != want.val) {
			t.Fatalf("key %d: %d,%v want %d,%v", k, got, ok, want.val, want.present)
		}
	}
}

func TestScanPinsVersionsAgainstPruning(t *testing.T) {
	m := New()
	for i := uint32(0); i < 50; i++ {
		m.Put(i, 1)
	}
	// Run scans and update storms together; a scan must never miss a key
	// that existed before it started (pruning must spare its versions).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint32(2); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for k := uint32(0); k < 50; k++ {
				m.Put(k, i)
			}
		}
	}()
	for round := 0; round < 300; round++ {
		n := 0
		m.RangeFrom(0, func(uint32, uint32) bool { n++; return true })
		if n != 50 {
			close(stop)
			wg.Wait()
			t.Fatalf("scan missed keys: %d/50", n)
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentRemovesReportOnce races removes of one present key: the
// key is deleted once, so exactly one Remove may report it present.
func TestConcurrentRemovesReportOnce(t *testing.T) {
	m := New()
	const removers = 4
	for trial := 0; trial < 2000; trial++ {
		m.Put(7, uint32(trial))
		var start sync.WaitGroup
		start.Add(1)
		var wg sync.WaitGroup
		var present atomic.Int32
		for g := 0; g < removers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				if m.Remove(7) {
					present.Add(1)
				}
			}()
		}
		start.Done()
		wg.Wait()
		if n := present.Load(); n != 1 {
			t.Fatalf("trial %d: %d concurrent removes of one present key reported it present, want 1", trial, n)
		}
	}
}
