// Command jiffybench regenerates the paper's evaluation figures (§4): for a
// chosen figure and row it sweeps every competitor index over the requested
// thread counts and prints one throughput row per measurement point, in the
// same units the paper reports (millions of basic operations per second;
// a scan over n entries counts as n gets).
//
// Examples:
//
//	jiffybench -figure 5 -row simple                 # Fig. 5 top row
//	jiffybench -figure 6 -row b100 -threads 1,2,4,8  # Fig. 6 bottom row
//	jiffybench -figure 8 -row b10 -mix w             # one scenario only
//	jiffybench -claims                               # §4.3 scalar claims
//	jiffybench -figure 5 -indices jiffy,jiffy-sharded -shards 8
//	                                                 # sharded vs single-shard
//	jiffybench -net -json BENCH_0005.json            # serving layer over loopback
//	jiffybench -net -conns 1,8 -netthreads 16        # smaller sweep
//	jiffybench -net -replica-reads -json BENCH_0009.json
//	                                                 # replica read offload
//	jiffybench -soak 30s -json BENCH_soak.json       # leak-asserting soak run
//
// The defaults are sized for a laptop-class machine; use -keyspace,
// -prefill and -duration to approach the paper's 20M-key / 10M-entry
// datasets on bigger hardware.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

func main() {
	var (
		figure   = flag.String("figure", "5", "figure to regenerate: 5, 6, 7, 8, 9 or 10")
		row      = flag.String("row", "simple", "figure row: simple, b10 or b100")
		threads  = flag.String("threads", "1,2,4,8", "comma-separated thread counts (paper: 8..96)")
		mixes    = flag.String("mix", "w,ul,ms,ml", "scenarios: w (update-only), ul (update-lookup), ms (short scans), ml (long scans), sh (scan-heavy)")
		indices  = flag.String("indices", "", "restrict to these indices (comma-separated; default: all for the row)")
		keyspace = flag.Uint64("keyspace", 1<<18, "unique keys (paper: 20M)")
		prefill  = flag.Int("prefill", 1<<17, "prefilled entries (paper: 10M)")
		duration = flag.Duration("duration", 300*time.Millisecond, "measurement time per point")
		seed     = flag.Uint64("seed", 42, "workload seed")
		claims   = flag.Bool("claims", false, "measure the scalar claims of §4.3 instead of a figure")
		micro    = flag.Bool("micro", false, "measure the read-scalability micro claims (deep-chain seeks, iterator allocs, merged-scan scaling) instead of a figure")
		netBench = flag.Bool("net", false, "measure the network serving layer over loopback (conns sweep, pipelining on/off, batch amortization) instead of a figure")
		replRd   = flag.Bool("replica-reads", false, "with -net: measure read offload through a WAL-shipped replica (primary-pinned vs replica-routed reads) instead of the conns sweep")
		traceAB  = flag.Bool("trace", false, "with -net: measure tracing overhead — every sweep point runs against a tracing-free server and a flight-recorder-enabled one (clients sampling trace IDs at -tracesample) in interleaved A·B·B·A order, and the file records the mean delta")
		traceSmp = flag.Float64("tracesample", 0.01, "with -net -trace: client trace-ID sample rate for the traced runs (1: every request carries an ID — the wire-overhead worst case)")
		conns    = flag.String("conns", "1,2,4,8,16,32,64,128,256", "with -net: comma-separated client connection counts to sweep")
		netAddr  = flag.String("netaddr", "", "with -net: measure against this running jiffyd-protocol server instead of an in-process loopback one")
		netThr   = flag.Int("netthreads", 64, "with -net: workload goroutines driving the client")
		soakDur  = flag.Duration("soak", 0, "run the leak-asserting soak for this long (0: off); asserts steady goroutines/fds/heap and epoch progress from periodic /metrics self-scrapes")
		soakConn = flag.Int("soakconns", 8, "with -soak: client connections")
		soakThr  = flag.Int("soakthreads", 16, "with -soak: workload goroutines")
		shards   = flag.Int("shards", 0, "shard count for the jiffy-sharded index (default: GOMAXPROCS, min 2)")
		jsonOut  = flag.String("json", "", "also write results to this file as JSON (e.g. BENCH_fig5.json), for perf-trajectory tracking")
	)
	flag.Parse()

	if *shards > 0 {
		harness.ShardCount = *shards
	}

	if *claims {
		if *jsonOut != "" {
			fmt.Fprintln(os.Stderr, "-json is not supported with -claims (claims are scalar comparisons, not figure points)")
			os.Exit(2)
		}
		runClaims(*keyspace, *prefill, *duration, *seed)
		return
	}

	if *micro {
		res := runMicro(*duration, *seed)
		if *jsonOut != "" {
			if err := writeMicroJSON(*jsonOut, res); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("# wrote micro results to %s\n", *jsonOut)
		}
		return
	}

	if *soakDur > 0 {
		res := runSoak(*soakDur, *soakConn, *soakThr, *seed)
		if *jsonOut != "" {
			if err := writeSoakJSON(*jsonOut, res); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("# wrote soak results to %s\n", *jsonOut)
		}
		if !res.Pass {
			fmt.Fprintln(os.Stderr, "soak: FAILED")
			os.Exit(1)
		}
		fmt.Printf("# soak: all checks passed (%.0f requests)\n", res.Requests)
		return
	}

	if *netBench {
		var connsList []int
		for _, s := range strings.Split(*conns, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad connection count %q\n", s)
				os.Exit(2)
			}
			connsList = append(connsList, n)
		}
		if *replRd {
			res := runReplicaReads(connsList, *netThr, *keyspace, *prefill, *duration, *seed)
			if *jsonOut != "" {
				if err := writeReplicaJSON(*jsonOut, res); err != nil {
					fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonOut, err)
					os.Exit(1)
				}
				fmt.Printf("# wrote replica-read results to %s\n", *jsonOut)
			}
			return
		}
		res := runNet(*netAddr, connsList, *netThr, *keyspace, *prefill, *duration, *seed, *traceAB, *traceSmp)
		if *jsonOut != "" {
			if err := writeNetJSON(*jsonOut, res); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("# wrote net results to %s\n", *jsonOut)
		}
		return
	}

	fig, ok := harness.Figures[*figure]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figure)
		os.Exit(2)
	}
	var ths []int
	for _, s := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad thread count %q\n", s)
			os.Exit(2)
		}
		ths = append(ths, n)
	}
	var only map[string]bool
	if *indices != "" {
		only = map[string]bool{}
		for _, n := range strings.Split(*indices, ",") {
			only[strings.TrimSpace(n)] = true
		}
	}
	// Validate the requested mixes against the known scenarios: a typo'd
	// -mix used to match nothing and silently run zero measurements.
	validMix := map[string]bool{}
	var mixNames []string
	for _, m := range workload.AllMixes {
		validMix[m.Name] = true
		mixNames = append(mixNames, m.Name)
	}
	wantMix := map[string]bool{}
	for _, m := range strings.Split(*mixes, ",") {
		name := strings.TrimSpace(m)
		if !validMix[name] {
			fmt.Fprintf(os.Stderr, "unknown mix %q; valid mixes: %s\n", name, strings.Join(mixNames, ", "))
			os.Exit(2)
		}
		wantMix[name] = true
	}

	base := harness.Config{
		KeySpace: *keyspace,
		Prefill:  *prefill,
		Duration: *duration,
		Seed:     *seed,
	}
	fmt.Printf("# figure %s row %s  keyspace=%d prefill=%d duration=%v\n",
		fig.ID, *row, *keyspace, *prefill, *duration)
	var all []harness.Result
	for _, mix := range workload.AllMixes {
		if !wantMix[mix.Name] {
			continue
		}
		base.Mix = mix
		all = append(all, harness.RunFigure(os.Stdout, fig, *row, ths, base, only)...)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, fig.ID, *row, base, all); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("# wrote %d points to %s\n", len(all), *jsonOut)
	}
}

// benchFile is the BENCH_*.json perf-trajectory schema: one file per run,
// self-describing enough to compare points across commits.
type benchFile struct {
	Figure   string       `json:"figure"`
	Row      string       `json:"row"`
	KeySpace uint64       `json:"keyspace"`
	Prefill  int          `json:"prefill"`
	Duration string       `json:"duration"`
	Seed     uint64       `json:"seed"`
	When     string       `json:"when"`
	Points   []benchPoint `json:"points"`
}

type benchPoint struct {
	Index      string  `json:"index"`
	Mix        string  `json:"mix"`
	Batch      string  `json:"batch"`
	Dist       string  `json:"dist"`
	Threads    int     `json:"threads"`
	TotalMops  float64 `json:"total_mops"`
	UpdateMops float64 `json:"update_mops"`
	TotalOps   uint64  `json:"total_ops"`
	UpdateOps  uint64  `json:"update_ops"`
	ElapsedMs  float64 `json:"elapsed_ms"`
}

func writeJSON(path, figure, row string, base harness.Config, results []harness.Result) error {
	out := benchFile{
		Figure:   figure,
		Row:      row,
		KeySpace: base.KeySpace,
		Prefill:  base.Prefill,
		Duration: base.Duration.String(),
		Seed:     base.Seed,
		When:     time.Now().UTC().Format(time.RFC3339),
	}
	for _, r := range results {
		out.Points = append(out.Points, benchPoint{
			Index:      r.Index,
			Mix:        r.Config.Mix.Name,
			Batch:      r.Config.Batch.String(),
			Dist:       r.Config.Dist.String(),
			Threads:    r.Config.Threads,
			TotalMops:  r.TotalMops(),
			UpdateMops: r.UpdateMops(),
			TotalOps:   r.TotalOps,
			UpdateOps:  r.UpdateOps,
			ElapsedMs:  float64(r.Elapsed.Microseconds()) / 1e3,
		})
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
