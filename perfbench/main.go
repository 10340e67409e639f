// Command perfbench is the repository's benchmark. It runs one seeded,
// closed-loop workload per invocation from a single process:
//
//	kv-read    Get/Put/snapshot-scan mix through jiffy/client against an
//	           in-process durable primary with an asynchronous replica
//	kv-ingest  100-key cross-shard BatchUpdates against the same stack
//	lib-scan   Get/BatchUpdate/snapshot Range on an embedded jiffy.Sharded
//
// and prints a report followed, as its last line, by one JSON object with
// the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end ones listed in BENCHMARK.json; with
// --trace 1 they are the per-layer ones, from spans this package records
// around each layer's public entry points, and the tracing overhead. Any
// correctness violation makes it exit 1.
//
//	bash perfbench/run.sh --workload kv-read --seed 1 --seconds 30 --trace 0 --out a/1.json
//	bash perfbench/run.sh compare a b
//
// compare reads two directories of --out files and gives, per workload
// and metric, each side's median and quartiles and a verdict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var cfg config
	var trace int
	var out string
	flag.StringVar(&cfg.workload, "workload", "", "kv-read, kv-ingest or lib-scan")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "directory for temporary store files")
	flag.StringVar(&out, "out", "", "also write the full result as JSON to this file")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad flags: need --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(os.Stdout, res)
	if out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write result:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(lastLine(res))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		// Also on stderr, where a harness that keeps only the error
		// stream's tail still sees why the run failed.
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "perfbench: VIOLATION:", v)
		}
		os.Exit(1)
	}
}

// lastLine is the machine-read summary: the end-to-end metrics listed in
// BENCHMARK.json, or with tracing every per-layer metric.
func lastLine(res *result) map[string]any {
	ms := map[string]metric{}
	if res.Trace == 1 {
		for _, d := range perLayer {
			ms[d.Name] = metric{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			if d.Gated {
				ms[d.Name] = metric{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
			}
		}
	}
	return map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   ms,
	}
}

// report prints the human-readable result: environment, every metric
// with its unit and sample count, and any violations.
func report(w io.Writer, res *result) {
	fmt.Fprintf(w, "# perfbench %s seed=%d trace=%d\n", res.Workload, res.Seed, res.Trace)
	keys := make([]string, 0, len(res.Env))
	for k := range res.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "env %-18s %s\n", k, res.Env[k])
	}
	tab := endToEnd
	if res.Trace == 1 {
		tab = perLayer
	}
	for _, d := range tab {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "metric %-32s %14.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "requests attempted=%d failed=%d\n", res.Attempted, res.Failed)
	if res.FirstError != "" {
		fmt.Fprintf(w, "first error: %s\n", res.FirstError)
	}
	for _, d := range tab {
		if why, ok := res.Notes[d.Name]; ok {
			fmt.Fprintf(w, "unmeasured %s: %s\n", d.Name, why)
		}
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
}
