package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/jiffy"
	"repro/jiffy/client"
	"repro/jiffy/durable"
)

// The -net mode measures the network serving layer (internal/server +
// jiffy/client) over loopback TCP: throughput as the client connection
// pool grows 1→256, with pipelined multiplexing on and off, and the
// batch-amortization effect of shipping 10- and 100-op atomic batches as
// one frame instead of ten or a hundred. By default it starts an
// in-process jiffyd-equivalent server on 127.0.0.1:0 (uint64 keys,
// 100-byte payload values, harness.ShardCount shards) so the whole
// measurement is self-contained; -netaddr points it at an external server
// instead. Results land in a BENCH_*.json file (BENCH_0005.json is the
// first committed instance; BENCH_0006.json and BENCH_0007.json also
// carry per-core rows from when the server had two serving cores).

// netFile is the -net JSON schema.
type netFile struct {
	Kind       string `json:"kind"` // always "net"
	GOMAXPROCS int    `json:"gomaxprocs"`
	Shards     int    `json:"shards"`
	Threads    int    `json:"threads"`
	KeySpace   uint64 `json:"keyspace"`
	Prefill    int    `json:"prefill"`
	Duration   string `json:"duration"`
	When       string `json:"when"`
	// Trace marks a tracing A/B run (-trace): every sweep point was
	// measured against a tracing-free server (A) and a server running the
	// flight recorder with clients sampling trace IDs at TraceSample (B),
	// in interleaved A·B·B·A order (per EXPERIMENTS.md, drift cancels),
	// and appears twice in Sweep. TraceOverheadPct is the mean throughput
	// cost of tracing across the sweep: positive means traced runs were
	// slower.
	Trace            bool         `json:"trace,omitempty"`
	TraceSample      float64      `json:"trace_sample,omitempty"`
	TraceOverheadPct float64      `json:"trace_overhead_pct,omitempty"`
	Sweep            []netPoint   `json:"sweep"`
	Batch            []netBatchPt `json:"batch"`
}

// netPoint is one conns-sweep measurement (mix ul: 25 % updates, 75 %
// lookups, one op per request). Threads records the workload goroutines
// actually driving the point — max(-netthreads, conns), so wide pools are
// not throttled by a narrow driver.
type netPoint struct {
	Conns     int     `json:"conns"`
	Threads   int     `json:"threads"`
	Pipelined bool    `json:"pipelined"`
	Traced    bool    `json:"traced,omitempty"` // client propagated a trace ID on every request
	Mix       string  `json:"mix"`
	TotalMops float64 `json:"total_mops"`
	TotalOps  uint64  `json:"total_ops"`
	Runs      int     `json:"runs,omitempty"` // >1: TotalMops is the mean of interleaved runs
}

// netBatchPt is one batch-amortization measurement (update-only, all
// connections, pipelined): ops per second counted in basic operations, so
// the amortization of frame and round-trip overhead shows directly.
type netBatchPt struct {
	Batch     string  `json:"batch"`
	Conns     int     `json:"conns"`
	TotalMops float64 `json:"total_mops"`
	TotalOps  uint64  `json:"total_ops"`
}

// netPayloadEnc encodes harness.Payload values as their raw 100 bytes.
func netPayloadEnc() durable.Enc[*harness.Payload] {
	return durable.Enc[*harness.Payload]{
		Append: func(dst []byte, v *harness.Payload) []byte { return append(dst, v[:]...) },
		Decode: func(src []byte) (*harness.Payload, error) {
			var p harness.Payload
			copy(p[:], src)
			return &p, nil
		},
	}
}

func netCodec() durable.Codec[uint64, *harness.Payload] {
	return durable.Codec[uint64, *harness.Payload]{Key: durable.Uint64Enc(), Value: netPayloadEnc()}
}

// startNetServer starts the in-process loopback server, prefilled directly (the dataset is the same either way and skipping the
// network keeps setup fast). With tracing the server gets a registered
// flight recorder, exactly as jiffyd runs it.
func startNetServer(base harness.Config, tracing bool) *server.Server[uint64, *harness.Payload] {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "net bench: listen: %v\n", err)
		os.Exit(1)
	}
	var opts server.Options
	if tracing {
		rec := trace.NewRecorder(0)
		rec.RegisterMetrics(obs.NewRegistry())
		opts.Tracer = rec
	}
	s := jiffy.NewSharded[uint64, *harness.Payload](harness.ShardCount)
	srv := server.Serve(ln, server.NewMemStore(s), netCodec(), opts)
	harness.Prefill[uint64, *harness.Payload](&index.ShardedJiffy[uint64, *harness.Payload]{S: s}, base, harness.KeyA, harness.ValA)
	return srv
}

// measureNetPoint runs one sweep measurement. A traced run reproduces a
// deployed tracing setup on the client side: a local recorder plus a
// trace ID sampled onto sampleRate of the requests (8 extra body bytes
// and a span at every stage each one crosses).
func measureNetPoint(addr string, conns int, pipelined, traced bool, sampleRate float64, cfg harness.Config) harness.Result {
	copts := client.Options{Conns: conns, NoPipeline: !pipelined}
	if traced {
		copts.Tracer = trace.NewRecorder(0)
		copts.TraceSample = sampleRate
	}
	c, err := client.Dial(addr, netCodec(), copts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "net bench: dial: %v\n", err)
		os.Exit(1)
	}
	idx := index.NewNetJiffy(c)
	res := harness.Run[uint64, *harness.Payload](idx, cfg, harness.KeyA, harness.ValA)
	idx.Close()
	return res
}

// sweep runs the conns sweep and the batch-amortization points against
// addr. With a non-empty addrTraced every
// sweep point is measured four times in A·B·B·A order — A against addr
// (no tracing anywhere), B against addrTraced (flight recorder serving,
// clients sampling trace IDs) — and lands as two averaged points, so
// drift between runs cancels out of the traced-vs-untraced comparison.
func sweep(out *netFile, addr, addrTraced string, connsList []int, threads int, base harness.Config, sampleRate float64) {
	traceAB := addrTraced != ""
	base.Mix = workload.MixUpdateLookup
	for _, conns := range connsList {
		ptThreads := threads
		if conns > ptThreads {
			ptThreads = conns
		}
		cfg := base
		cfg.Threads = ptThreads
		for _, pipelined := range []bool{true, false} {
			order := []bool{false}
			if traceAB {
				order = []bool{false, true, true, false}
			}
			var mops [2]float64
			var ops [2]uint64
			var runs [2]int
			for _, traced := range order {
				a := addr
				if traced {
					a = addrTraced
				}
				res := measureNetPoint(a, conns, pipelined, traced, sampleRate, cfg)
				i := 0
				if traced {
					i = 1
				}
				mops[i] += res.TotalMops()
				ops[i] += res.TotalOps
				runs[i]++
			}
			for i, traced := range []bool{false, true} {
				if runs[i] == 0 {
					continue
				}
				mean := mops[i] / float64(runs[i])
				pt := netPoint{
					Conns:     conns,
					Threads:   ptThreads,
					Pipelined: pipelined,
					Traced:    traced,
					Mix:       cfg.Mix.Name,
					TotalMops: mean,
					TotalOps:  ops[i] / uint64(runs[i]),
				}
				if traceAB {
					pt.Runs = runs[i]
				}
				out.Sweep = append(out.Sweep, pt)
				fmt.Printf("net   %-3s conns=%-3d pipelined=%-5v traced=%-5v threads=%-3d total=%8.3f Mops/s\n",
					cfg.Mix.Name, conns, pipelined, traced, ptThreads, mean)
			}
		}
	}

	// Batch amortization: update-only at the largest pool, batches of 1,
	// 10 and 100 ops per frame.
	maxConns := connsList[0]
	for _, n := range connsList {
		if n > maxConns {
			maxConns = n
		}
	}
	bcfg := base
	bcfg.Mix = workload.MixUpdateOnly
	if maxConns > bcfg.Threads {
		bcfg.Threads = maxConns
	}
	for _, size := range []int{1, 10, 100} {
		bcfg.Batch = workload.BatchMode{Size: size}
		res := measureNetPoint(addr, maxConns, true, false, 0, bcfg)
		out.Batch = append(out.Batch, netBatchPt{
			Batch:     bcfg.Batch.String(),
			Conns:     maxConns,
			TotalMops: res.TotalMops(),
			TotalOps:  res.TotalOps,
		})
		fmt.Printf("net   w   batch=%-7s conns=%-3d threads=%-3d total=%8.3f Mops/s\n",
			bcfg.Batch.String(), maxConns, bcfg.Threads, res.TotalMops())
	}
}

// runNet executes the serving-layer measurements and returns the file to
// serialize. addr == "" sweeps an in-process loopback server; an external
// addr is measured as-is.
func runNet(addr string, connsList []int, threads int, keyspace uint64, prefill int, duration time.Duration, seed uint64, traceAB bool, sampleRate float64) *netFile {
	out := &netFile{
		Kind:       "net",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Shards:     harness.ShardCount,
		Threads:    threads,
		KeySpace:   keyspace,
		Prefill:    prefill,
		Duration:   duration.String(),
		When:       time.Now().UTC().Format(time.RFC3339),
		Trace:      traceAB,
	}
	if traceAB {
		out.TraceSample = sampleRate
	}

	base := harness.Config{
		KeySpace: keyspace,
		Prefill:  prefill,
		Duration: duration,
		Seed:     seed,
		Threads:  threads,
		Dist:     workload.Uniform,
	}

	addrTraced := ""
	if addr != "" {
		// External server: prefill through the wire. It can't be
		// restarted with tracing on and off, so a tracing A/B measures
		// the client-side cost only.
		c, err := client.Dial(addr, netCodec(), client.Options{Conns: 4})
		if err != nil {
			fmt.Fprintf(os.Stderr, "net bench: dial %s: %v\n", addr, err)
			os.Exit(1)
		}
		harness.Prefill[uint64, *harness.Payload](index.NewNetJiffy(c), base, harness.KeyA, harness.ValA)
		c.Close()
		fmt.Printf("# net bench: external server %s (prefill %d over the wire)\n", addr, prefill)
		if traceAB {
			addrTraced = addr
		}
	} else {
		srv := startNetServer(base, false)
		defer srv.Close()
		addr = srv.Addr().String()
		// The B side of a tracing A/B gets its own server, identically
		// prefilled, running the flight recorder the way jiffyd does.
		if traceAB {
			srvTraced := startNetServer(base, true)
			defer srvTraced.Close()
			addrTraced = srvTraced.Addr().String()
		}
		fmt.Printf("# net bench: loopback server on %s (%d shards, prefill %d)\n",
			addr, harness.ShardCount, prefill)
	}
	sweep(out, addr, addrTraced, connsList, threads, base, sampleRate)
	finishTraceAB(out, traceAB)
	return out
}

// finishTraceAB summarizes a tracing A/B run: the mean percentage
// throughput cost of tracing over every paired sweep point (positive:
// traced slower). Left at zero for plain runs.
func finishTraceAB(out *netFile, traceAB bool) {
	if !traceAB {
		return
	}
	type key struct {
		conns     int
		pipelined bool
	}
	baseline := map[key]float64{}
	for _, pt := range out.Sweep {
		if !pt.Traced {
			baseline[key{pt.Conns, pt.Pipelined}] = pt.TotalMops
		}
	}
	var sum float64
	var n int
	for _, pt := range out.Sweep {
		if !pt.Traced {
			continue
		}
		if b := baseline[key{pt.Conns, pt.Pipelined}]; b > 0 {
			sum += (b - pt.TotalMops) / b * 100
			n++
		}
	}
	if n > 0 {
		out.TraceOverheadPct = sum / float64(n)
	}
	fmt.Printf("# net bench: tracing overhead %.2f%% mean over %d paired points (positive: traced slower)\n",
		out.TraceOverheadPct, n)
}

func writeNetJSON(path string, out *netFile) error {
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
