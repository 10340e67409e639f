package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// probe is a reading of every cumulative counter the per-layer metrics
// difference across a window: process syscalls, Go runtime totals, and
// the primary's WAL and replication counters.
type probe struct {
	syscr, syscw     float64
	mallocs, gcs     float64
	gcCPU, totalCPU  float64
	appends, flushes float64
	walBytes         float64
	fsync            []float64 // cumulative fsync histogram buckets
	applied          float64
	resyncs          float64
	reconnects       float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// readProbe takes a reading; st may be nil (no network stack).
func readProbe(st *kvStack) probe {
	var p probe
	p.syscr, p.syscw = procIO()
	metrics.Read(runtimeSamples)
	p.mallocs = sampleValue(runtimeSamples[0])
	p.gcs = sampleValue(runtimeSamples[1])
	p.gcCPU = sampleValue(runtimeSamples[2])
	p.totalCPU = sampleValue(runtimeSamples[3])
	if st != nil {
		p.appends = float64(st.pmet.Appends.Value())
		p.flushes = float64(st.pmet.Flushes.Value())
		p.walBytes = float64(st.pmet.BytesWritten.Value())
		p.fsync = promBuckets(st.reg, "jiffy_wal_fsync_seconds")
		p.applied = float64(st.runMet.RecordsApplied.Value())
		p.resyncs = float64(st.srcMet.Resyncs.Value())
		p.reconnects = float64(st.runMet.Reconnects.Value())
	}
	return p
}

// since returns p minus an earlier reading q: the window between them.
func (p probe) since(q probe) probe { return p.plus(q, -1) }

// add sums two windows.
func (p probe) add(q probe) probe { return p.plus(q, 1) }

func (p probe) plus(q probe, sign float64) probe {
	d := probe{
		syscr: p.syscr + sign*q.syscr, syscw: p.syscw + sign*q.syscw,
		mallocs: p.mallocs + sign*q.mallocs, gcs: p.gcs + sign*q.gcs,
		gcCPU: p.gcCPU + sign*q.gcCPU, totalCPU: p.totalCPU + sign*q.totalCPU,
		appends: p.appends + sign*q.appends, flushes: p.flushes + sign*q.flushes,
		walBytes: p.walBytes + sign*q.walBytes,
		applied:  p.applied + sign*q.applied, resyncs: p.resyncs + sign*q.resyncs,
		reconnects: p.reconnects + sign*q.reconnects,
	}
	d.fsync = make([]float64, max(len(p.fsync), len(q.fsync)))
	for i := range d.fsync {
		if i < len(p.fsync) {
			d.fsync[i] = p.fsync[i]
		}
		if i < len(q.fsync) {
			d.fsync[i] += sign * q.fsync[i]
		}
	}
	return d
}

// procIO reads the process's read and write syscall counts.
func procIO() (syscr, syscw float64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		v, _ := strconv.ParseFloat(strings.TrimSpace(val), 64)
		switch name {
		case "syscr":
			syscr = v
		case "syscw":
			syscw = v
		}
	}
	return syscr, syscw
}

// hostStolen reads the machine's CPU time stolen by the hypervisor and
// its total CPU time, in clock ticks, from the first line of /proc/stat.
func hostStolen() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// maxRSSMB reads the process's peak resident set size.
func maxRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// promBuckets renders reg and returns the cumulative bucket counts of
// histogram name in bound order, the +Inf bucket last.
func promBuckets(reg *obs.Registry, name string) []float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil
	}
	var out []float64
	prefix := name + `_bucket{le="`
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		_, count, _ := strings.Cut(line, "} ")
		v, _ := strconv.ParseFloat(count, 64)
		out = append(out, v)
	}
	return out
}

// bucketQuantile is the Prometheus histogram_quantile rule over
// cumulative bucket counts: find the bucket holding rank q*n and
// interpolate linearly inside it. Bounds are upper bounds; the last
// bucket (+Inf) reports the highest finite bound.
func bucketQuantile(bounds, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := q * cum[len(cum)-1]
	for i, c := range cum {
		if c < rank {
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1]
		}
		lo, prev := 0.0, 0.0
		if i > 0 {
			lo, prev = bounds[i-1], cum[i-1]
		}
		if c == prev {
			return bounds[i]
		}
		return lo + (bounds[i]-lo)*(rank-prev)/(c-prev)
	}
	return math.NaN()
}
