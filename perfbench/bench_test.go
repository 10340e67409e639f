package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// scanOf builds a synthetic scan over [lo, hi): group stamps from stamp,
// one entry per key.
func scanOf(lo, hi int, stamp func(idx int) uint64) (keys []string, vals [][]byte) {
	for i := lo; i < hi; i++ {
		k := keyName(i)
		v := newValueBuf()
		fillValue(v, k, stamp(i))
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals
}

func runCheck(lo, hi, group int, keys []string, vals [][]byte) error {
	var c scanCheck
	c.reset(lo, hi, group)
	for i := range keys {
		if !c.add(keys[i], vals[i]) {
			break
		}
	}
	return c.finish()
}

func TestScanCheckAcceptsWholeBatches(t *testing.T) {
	keys, vals := scanOf(20, 60, func(i int) uint64 { return uint64(i/10) * 7 })
	if err := runCheck(20, 60, 10, keys, vals); err != nil {
		t.Fatalf("clean scan rejected: %v", err)
	}
}

func TestScanCheckRejectsTornBatch(t *testing.T) {
	// Group 3 (keys 30..39) shows the new batch's stamp on its first half
	// and the old one on the rest: a batch half-applied in the snapshot.
	keys, vals := scanOf(20, 60, func(i int) uint64 {
		if i >= 30 && i < 35 {
			return 99
		}
		return uint64(i / 10)
	})
	err := runCheck(20, 60, 10, keys, vals)
	if err == nil || !strings.Contains(err.Error(), "torn batch") {
		t.Fatalf("torn scan accepted or misreported: %v", err)
	}
	// Without group checking (kv-read, where single puts break groups) the
	// same scan is fine.
	if err := runCheck(20, 60, 0, keys, vals); err != nil {
		t.Fatalf("group check off: %v", err)
	}
}

func TestScanCheckRejectsBadContents(t *testing.T) {
	stamp := func(int) uint64 { return 1 }
	keys, vals := scanOf(0, 10, stamp)
	cases := map[string]func() ([]string, [][]byte){
		"missing key": func() ([]string, [][]byte) {
			return slices.Delete(slices.Clone(keys), 4, 5), slices.Delete(slices.Clone(vals), 4, 5)
		},
		"unsorted": func() ([]string, [][]byte) {
			k, v := slices.Clone(keys), slices.Clone(vals)
			k[3], k[4], v[3], v[4] = k[4], k[3], v[4], v[3]
			return k, v
		},
		"short": func() ([]string, [][]byte) { return keys[:9], vals[:9] },
		"out of range": func() ([]string, [][]byte) {
			k, v := scanOf(0, 11, stamp)
			return k, v
		},
		"value for another key": func() ([]string, [][]byte) {
			v := slices.Clone(vals)
			v[2] = vals[3]
			return keys, v
		},
	}
	for name, mk := range cases {
		k, v := mk()
		if err := runCheck(0, 10, 0, k, v); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestKeyAndValueEncoding(t *testing.T) {
	for _, i := range []int{0, 7, 123456, 99999999} {
		k := keyName(i)
		if got, ok := keyIndex(k); !ok || got != i {
			t.Fatalf("keyIndex(%q) = %d, %v", k, got, ok)
		}
		v := newValueBuf()
		fillValue(v, k, 0xabc)
		if !valueFor(k, v) || valueFor(keyName(i+1), v) {
			t.Fatalf("valueFor misjudges %q", v)
		}
		if string(v[stampAt:stampAt+stampBytes]) != "0000000000000abc" {
			t.Fatalf("stamp encoded as %q", v[stampAt:stampAt+stampBytes])
		}
	}
	if keyName(9) >= keyName(10) {
		t.Fatal("key order is not index order")
	}
}

func TestHistQuantilesMatchSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 7, 100, 1000, 50000} {
		var h Hist
		samples := make([]float64, n)
		for i := range samples {
			// Log-uniform over 1ns..10s, covering every bucket regime.
			ns := math.Floor(math.Exp(rng.Float64() * math.Log(1e10)))
			samples[i] = ns
			h.Record(time.Duration(ns))
		}
		slices.Sort(samples)
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(n)))
			want := samples[max(rank, 1)-1]
			got := h.QuantileNs(q)
			if math.Abs(got-want) > want/(2<<subBits)+1e-9 {
				t.Errorf("n=%d q=%v: hist %v, oracle %v", n, q, got, want)
			}
		}
	}
}

func TestTailQHasTenBeyond(t *testing.T) {
	for _, n := range []uint64{20, 100, 999, 1000, 100000} {
		q := TailQ(n)
		if beyond := float64(n) * (1 - q); beyond < 10-1e-9 {
			t.Errorf("n=%d: q=%v leaves %v samples beyond", n, q, beyond)
		}
	}
	if TailQ(100000) != 0.99 {
		t.Errorf("large samples should report p99, got %v", TailQ(100000))
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if s.q1 != 2.75 || s.med != 5.5 || s.q3 != 8.25 {
		t.Fatalf("quartiles %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.q1 != 1 || s.med != 2 || s.q3 != 4 {
		t.Fatalf("quartiles %+v", s)
	}
}

func TestVerdictRule(t *testing.T) {
	lat := metricDef{Name: "x_us", Better: "lower", Bound: 0.1}
	rate := metricDef{Name: "r", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, f float64) []float64 {
		out := slices.Clone(v)
		for i := range out {
			out[i] *= f
		}
		return out
	}
	cases := []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same", base, base, lat, "within bound"},
		{"slightly slower, inside bound", base, shift(base, 1.05), lat, "within bound"},
		{"slower past bound", base, shift(base, 1.2), lat, "worse"},
		{"clearly faster", base, shift(base, 0.8), lat, "better"},
		{"rate past bound", base, shift(base, 0.85), rate, "worse"},
		{"rate clearly up", base, shift(base, 1.2), rate, "better"},
		{"noisy", base, []float64{60, 140, 70, 130, 100, 80, 120, 90, 110, 100}, lat, "unresolved"},
		{"noisy but every run better", []float64{100, 150, 120, 180, 110}, []float64{50, 60, 55, 90, 52}, lat, "better"},
		{"no bound, overlapping", base, shift(base, 1.001), metricDef{Better: "lower"}, "unresolved"},
		{"no bound, clearly worse", base, shift(base, 1.5), metricDef{Better: "lower"}, "worse"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	cum := []float64{0, 10, 20, 20} // 10 in (1,2], 10 in (2,4], none above
	if got := bucketQuantile(bounds, cum, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := bucketQuantile(bounds, cum, 0.75); got != 3 {
		t.Errorf("p75 = %v, want 3", got)
	}
	if got := bucketQuantile(bounds, []float64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var want []entry
	for _, d := range endToEnd {
		if d.Gated {
			bound := d.Bound
			want = append(want, entry{d.Name, d.Unit, d.Better, &bound})
		}
	}
	if len(spec.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the tables %d", len(spec.EndToEnd), len(want))
	}
	for i, e := range spec.EndToEnd {
		w := want[i]
		if e.Name != w.Name || e.Unit != w.Unit || e.Better != w.Better || e.Bound == nil || *e.Bound != *w.Bound {
			t.Errorf("end_to_end[%d] = %+v, tables say %+v (bound %v)", i, e, w, *w.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the tables %d", len(spec.PerLayer), len(perLayer))
	}
	for i, e := range spec.PerLayer {
		d := perLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, tables say %+v", i, e, d)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
