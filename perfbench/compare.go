package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// compareMain compares two directories of --out result files, run for
// run: a baseline A and a candidate B (or two runs of the same code, to
// prove the benchmark steady).
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <dir A> <dir B>")
		return 2
	}
	a, err := loadResults(args[0])
	if err == nil {
		var b map[string][]*result
		if b, err = loadResults(args[1]); err == nil {
			printCompare(w, a, b)
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 1
}

// loadResults reads every *.json in dir, grouped by workload and trace
// mode, each group ordered by seed so runs pair up across sides.
func loadResults(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	groups := map[string][]*result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		k := groupKey(&r)
		groups[k] = append(groups[k], &r)
	}
	for _, rs := range groups {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return groups, nil
}

func groupKey(r *result) string { return fmt.Sprintf("%s trace=%d", r.Workload, r.Trace) }

func printCompare(w io.Writer, a, b map[string][]*result) {
	keys := make([]string, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		ra, rb := a[k], b[k]
		fmt.Fprintf(w, "== %s: A %d runs, B %d runs\n", k, len(ra), len(rb))
		fmt.Fprintf(w, "%-32s %-6s %12s %12s %12s %7s | %12s %12s %12s %7s | %8s  %s\n",
			"metric", "unit", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "delta", "verdict")
		for _, tab := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range tab {
				av, bv := values(ra, d.Name), values(rb, d.Name)
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				sa, sb := summarize(av), summarize(bv)
				fmt.Fprintf(w, "%-32s %-6s %12.4g %12.4g %12.4g %6.1f%% | %12.4g %12.4g %12.4g %6.1f%% | %+7.1f%%  %s\n",
					d.Name, d.Unit, sa.q1, sa.med, sa.q3, 100*sa.spread(), sb.q1, sb.med, sb.q3, 100*sb.spread(),
					100*relDelta(sa.med, sb.med), verdict(av, bv, d))
			}
		}
	}
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// summary is a median with quartiles as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// so spreads read the same as any other tool following that rule.
type summary struct{ q1, med, q3 float64 }

func summarize(v []float64) summary {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 1 {
		return summary{s[0], s[0], s[0]}
	}
	q := func(i int) float64 {
		n := len(s)
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{q(1), q(2), q(3)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return math.Abs(s.q3-s.q1) / math.Abs(s.med)
}

func relDelta(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / math.Abs(a)
}

// verdict judges candidate runs b against baseline runs a for metric d:
//
//   - worse: B's median is worse than A's by more than d's bound;
//   - better: B's median is better than A's by more than A's
//     interquartile distance, and B wins at least nine tenths of the
//     runs paired by seed (ties count for neither side);
//   - unresolved: neither, and either side's spread exceeds the bound,
//     unless every B run is better than every A run (then better);
//   - within bound: otherwise.
//
// A metric without a bound is better or worse only by the pairing rule
// (mirrored for worse) and otherwise unresolved.
func verdict(a, b []float64, d metricDef) string {
	sa, sb := summarize(a), summarize(b)
	// gain > 0 means B is better.
	gain := sb.med - sa.med
	if d.Better == "lower" {
		gain = -gain
	}
	better := func(x, y float64) bool { // x better than y
		if d.Better == "lower" {
			return x < y
		}
		return x > y
	}
	var wins, losses, pairs int
	for i := 0; i < min(len(a), len(b)); i++ {
		pairs++
		switch {
		case better(b[i], a[i]):
			wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	iqrA := math.Abs(sa.q3 - sa.q1)
	if d.Bound > 0 && -gain > d.Bound*math.Abs(sa.med) {
		return "worse"
	}
	if gain > iqrA && float64(wins) >= 0.9*float64(pairs) && gain > 0 {
		return "better"
	}
	if d.Bound == 0 {
		if -gain > iqrA && float64(losses) >= 0.9*float64(pairs) && gain < 0 {
			return "worse"
		}
		return "unresolved"
	}
	if sa.spread() > d.Bound || sb.spread() > d.Bound {
		worstB, bestA := slices.Max(b), slices.Min(a)
		if d.Better == "higher" {
			worstB, bestA = slices.Min(b), slices.Max(a)
		}
		if better(worstB, bestA) {
			return "better"
		}
		return "unresolved"
	}
	return "within bound"
}
