package main

import (
	"math"
	"math/bits"
	"time"
)

// Hist is a fixed log-bucket latency histogram over nanoseconds. Values
// below 2^subBits ns get a bucket each; above that, every power of two is
// split into 2^subBits equal sub-buckets, so a reported value is within
// 1/2^(subBits+1) (0.8%) of the true one. Recording is one index
// computation and one increment, with no allocation, so the load
// generator does not show up in the allocation and GC metrics it reports.
// A Hist is owned by one goroutine; Merge combines them afterwards.
type Hist struct {
	counts [64 << subBits]uint64
	n      uint64
}

const subBits = 6

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketMid is the value a bucket reports: its exact value below
// 2^(subBits+1), where buckets are one nanosecond wide, else the midpoint
// of its range.
func bucketMid(i int) float64 {
	if i < 2<<subBits {
		return float64(i)
	}
	e := i>>subBits - 1
	lo := uint64(1<<subBits+i&(1<<subBits-1)) << e
	return float64(lo) + float64(uint64(1)<<e)/2
}

// Record adds one sample.
func (h *Hist) Record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketOf(v)]++
	h.n++
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.n }

// QuantileNs returns the nearest-rank q-quantile in nanoseconds: the value
// of the sample at rank ceil(q*n) in ascending order (0 when empty).
func (h *Hist) QuantileNs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.counts) - 1)
}

// TailQ is the highest percentile a sample of n supports, capped at 0.99:
// the one with at least ten samples beyond it.
func TailQ(n uint64) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}
