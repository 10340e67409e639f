// Command jiffyd serves a jiffy store over TCP: the sharded in-memory
// frontend by default, or the durable sharded frontend (write-ahead logs +
// checkpoints) with -durable. Keys are strings, values are raw bytes;
// clients connect with jiffy/client using the matching codec
// (durable.StringEnc / durable.BytesEnc).
//
//	jiffyd                                # in-memory, GOMAXPROCS shards, :7420
//	jiffyd -durable -dir /var/lib/jiffyd  # durable store (survives restarts)
//	jiffyd -addr 127.0.0.1:0 -shards 8    # ephemeral port, fixed shards
//	jiffyd -metrics-addr 127.0.0.1:7421   # Prometheus /metrics + pprof
//
// The server exposes the full protocol of internal/wire: point ops, atomic
// cross-shard batches, snapshot sessions (TTL-reaped when idle, see
// -snap-ttl) and cursored scans.
//
// Replication (DESIGN.md §11) turns one jiffyd into a primary and others
// into replicas:
//
//	jiffyd -durable -repl-addr :7422            # primary: stream the WAL tail
//	jiffyd -durable -repl-addr :7422 -repl-sync # ...waiting for replica acks
//	jiffyd -replica-of primary:7422 -dir rep    # replica: apply + serve reads
//
// A replica serves the read side of the protocol (gets, scans, snapshot
// sessions) at its replicated watermark and refuses writes with
// StatusReadOnly. POST /promote on the metrics listener (or `jiffyctl
// promote`) turns a replica into a primary: buffered records are applied,
// writes open up, and — when -repl-addr is set — the promoted node starts
// serving the replication stream itself.
//
// A fleet heals itself without the promote step (DESIGN.md §12): give
// every member a stable -node-id, the membership in -peers (the same
// string everywhere; each node drops its own entry), and -auto-failover:
//
//	jiffyd -durable -repl-addr :7431 -node-id a \
//	  -peers a=h1:7420/h1:7431,b=h2:7420/h2:7431 -auto-failover
//
// When the primary goes silent past -failover-threshold, the
// most-caught-up replica promotes itself under a bumped fencing epoch and
// the rest of the fleet re-points at it. A superseded primary fences
// itself on first contact with the higher epoch — writes answer
// StatusFenced — then demotes in process and rejoins the new primary's
// stream as a replica. Clients using client.Options.Rediscover follow
// the fleet on their own.
//
// With -metrics-addr an HTTP sidecar listener serves GET /metrics (the
// Prometheus text exposition: request rates and latencies by opcode,
// connection and backpressure state, WAL and checkpoint activity, the
// store's structural Stats, and Go runtime health), GET /healthz (JSON
// liveness with the node's role, fencing epoch and watermark), GET /trace
// (the flight recorder's recent spans), and the standard net/http/pprof
// endpoints under /debug/pprof/. The serving hot path is instrumented
// whether or not the endpoint is enabled — the flag only adds the
// listener — so the published benchmark numbers are the instrumented
// ones. See DESIGN.md §10.
//
// Request tracing (DESIGN.md §13) is always on: every request feeds the
// per-stage latency histograms (jiffy_stage_seconds) and leaves spans in
// a fixed-size lock-free flight recorder, stitched across processes by a
// client-propagated trace ID when the client samples one. -trace-slow
// logs a per-stage breakdown for outliers; -trace-sample dials the ring
// write rate; `jiffyctl trace` pretty-prints the recorder.
//
// Logs are structured (log/slog), text by default, JSON with -log-json.
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, every
// connection is severed, all server goroutines join, and — with -durable —
// the store's logs are synced and closed before the process exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/failover"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/jiffy"
	"repro/jiffy/durable"
)

func main() {
	var (
		addr    = flag.String("addr", ":7420", "listen address (host:port; port 0 picks one)")
		shards  = flag.Int("shards", runtime.GOMAXPROCS(0), "shard count of the serving frontend")
		durFlag = flag.Bool("durable", false, "serve the durable frontend (WAL + checkpoints) instead of the in-memory one")
		dir     = flag.String("dir", "jiffyd-data", "store directory (with -durable)")
		noSync  = flag.Bool("nosync", false, "skip fsyncs in the durable store (survives process crashes only)")
		snapTTL = flag.Duration("snap-ttl", 30*time.Second, "idle TTL for snapshot sessions")
		maxPage = flag.Int("max-scan-page", 4096, "server-side cap on scan page size")
		checkpt = flag.Duration("checkpoint-every", 0, "with -durable: checkpoint and truncate logs on this interval (0: never)")
		metrics = flag.String("metrics-addr", "", "HTTP listen address for /metrics, /healthz, /trace, /replstatus, /promote and /debug/pprof (empty: no HTTP listener)")
		logJSON = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")

		replAddr  = flag.String("repl-addr", "", "with -durable: serve the replication stream on this address (primary role); on a replica, taken over after promotion")
		replSync  = flag.Bool("repl-sync", false, "with -repl-addr: synchronous replication — a write is not acked until every synced replica confirms receipt (or times out)")
		replicaOf = flag.String("replica-of", "", "run as a replica of this primary replication address (implies durable; reads served at the watermark, writes refused until promoted)")

		traceSample = flag.Float64("trace-sample", 1, "fraction of spans written to the flight-recorder ring, 0..1 (the per-stage histograms always see every span; this only dials ring churn)")
		traceSlow   = flag.Duration("trace-slow", 0, "log a structured per-stage breakdown for any request slower than this (0: never)")
		fsyncDelay  = flag.Duration("fsync-delay", 0, "fault injection: sleep this long before every WAL fsync (testing only; shows up in the fsync/wal stages)")

		nodeID    = flag.String("node-id", "", "stable fleet identity of this node (ranks election ties; required with -auto-failover)")
		peersFlag = flag.String("peers", "", "other fleet members, comma-separated id=host:port[/replhost:port] (client address, optional replication address)")
		autoFail  = flag.Bool("auto-failover", false, "arm the failure detector: a replica elects and promotes a successor when the primary goes silent, and a superseded primary fences itself and rejoins as a replica")
		failThr   = flag.Duration("failover-threshold", 0, "with -auto-failover: primary silence before a replica suspects it (0: 2s default; probe cadence, timeouts and election stagger scale with it)")
	)
	flag.Parse()

	var h slog.Handler
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(h)
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)

	// The flight recorder is always constructed: stage histograms cost a
	// few atomic adds per request, and the ring only fills when tracing is
	// sampled on the client or -trace-sample is set. See DESIGN.md §13.
	rec := trace.NewRecorder(0)
	rec.RegisterMetrics(reg)
	rec.SetSampleRate(*traceSample)

	logf := func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	}

	peers, perr := parsePeers(*peersFlag)
	if perr != nil {
		fatal("bad -peers", "err", perr)
	}
	// The same -peers string can be handed to every member; each node
	// drops its own entry.
	if *nodeID != "" {
		peers = slices.DeleteFunc(peers, func(m wire.Member) bool { return m.ID == *nodeID })
	}
	if *autoFail && *nodeID == "" {
		fatal("automatic failover needs a stable identity", "fix", "add -node-id")
	}

	codec := durable.Codec[string, []byte]{Key: durable.StringEnc(), Value: durable.BytesEnc()}
	var store server.Store[string, []byte]
	var fn *fleetNode
	var replMet *repl.Metrics
	if *replAddr != "" || *replicaOf != "" {
		replMet = repl.RegisterMetrics(reg)
	}
	// fleetNode glues the durable store, the replication endpoints and the
	// failure detector; the serving store is switchable so a fenced
	// primary can demote to a replica under live connections.
	newFleet := func() *fleetNode {
		return &fleetNode{
			logger: logger, logf: logf, codec: codec, reg: reg,
			dir: *dir, shards: *shards,
			dopts: durable.Options[string]{
				NoSync: *noSync, Metrics: persist.NewMetrics(reg),
				Tracer: rec, FsyncDelay: *fsyncDelay,
			},
			tracer:   rec,
			replAddr: *replAddr, replSync: *replSync,
			self:  wire.Member{ID: *nodeID, Addr: *addr, ReplAddr: *replAddr},
			peers: peers, auto: *autoFail,
			fdet:    detectorTimings(*failThr),
			replMet: replMet,
			failMet: failover.RegisterMetrics(reg),
		}
	}
	switch {
	case *replicaOf != "":
		fn = newFleet()
		rstore, err := durable.OpenReplica(*dir, *shards, codec, fn.dopts)
		if err != nil {
			fatal("open replica store failed", "dir", *dir, "err", err)
		}
		fn.rstore = rstore
		fn.sw = server.NewSwitchableStore[string, []byte](server.NewReplicaStore(rstore))
		store = fn.sw
		logger.Info("replica store open", "dir", *dir, "shards", *shards,
			"watermark", rstore.Watermark(), "primary", *replicaOf)
	case *durFlag:
		fn = newFleet()
		// A replicated primary needs strictly unique commit versions so a
		// replica's resume point is exact (see durable.Options.StrictClock).
		popts := fn.dopts
		popts.StrictClock = *replAddr != ""
		dstore, err := durable.OpenSharded(*dir, *shards, codec, popts)
		if err != nil {
			fatal("open durable store failed", "dir", *dir, "err", err)
		}
		fn.dstore = dstore
		fn.sw = server.NewSwitchableStore[string, []byte](server.NewDurableStore(dstore))
		store = fn.sw
		logger.Info("durable store open", "dir", *dir, "shards", *shards,
			"entries_recovered", dstore.Len(), "nosync", *noSync)
	default:
		if *replAddr != "" {
			fatal("replication requires a durable store", "fix", "add -durable")
		}
		if *autoFail || *peersFlag != "" {
			fatal("fleet membership requires a durable store", "fix", "add -durable or -replica-of")
		}
		mem := jiffy.NewSharded[string, []byte](*shards)
		store = server.NewMemStore(mem)
		server.RegisterStoreStats(reg, mem.Stats)
		logger.Info("in-memory store ready", "shards", *shards)
	}
	if fn != nil {
		// Gauges register once and resolve through the node at each scrape,
		// so they survive promotions and demotions (re-registering panics).
		server.RegisterStoreStats(reg, fn.stats)
		server.RegisterDurableStats(reg, fn.durStats)
		repl.RegisterEpochGauge(reg, fn.epoch)
		if replMet != nil {
			repl.RegisterReplicaGauges(reg, fn.replicaWatermark)
			repl.RegisterSourceGaugesFunc(reg, fn.tap)
		}
	}

	// Replication stream (primary role). The source must attach its tap
	// before the first client write so the stream covers every update;
	// wire it before the serving listener opens.
	if fn != nil && fn.dstore != nil && *replAddr != "" {
		if err := fn.startSource(fn.dstore); err != nil {
			fatal("replication listen failed", "addr", *replAddr, "err", err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", "addr", *addr, "err", err)
	}
	srvOpts := server.Options{
		SnapTTL:     *snapTTL,
		MaxScanPage: *maxPage,
		Registry:    reg,
		Logf:        logf,
		Tracer:      rec,
		TraceSlow:   *traceSlow,
		TraceLog:    logger,
	}
	if fn != nil {
		srvOpts.Epoch = fn.epoch
		srvOpts.Cluster = fn.cluster
		if replMet != nil {
			// Fencing evidence and read gating only matter on a node that
			// plays (or may come to play) a replication role.
			srvOpts.OnPeerEpoch = fn.onPeerEpoch
			srvOpts.Watermark = fn.readFloor
		}
		srvOpts.ReadOnly = fn.isReplica()
	}
	srv := server.Serve(ln, store, codec, srvOpts)
	if fn != nil {
		fn.setServer(srv)
	}
	logger.Info("serving", "addr", srv.Addr().String(), "snap_ttl", snapTTL.String())

	// Replication apply loop (replica role). Promotion — manual via POST
	// /promote, or automatic from the failure detector — retires it.
	if fn != nil && fn.isReplica() {
		fn.startRunner(*replicaOf)
	}

	var msrv *http.Server
	if *metrics != "" {
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fatal("metrics listen failed", "addr", *metrics, "err", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			// Machine-readable liveness: status plus the node's replication
			// identity. The "ok" substring is load-bearing — deploy scripts
			// and the CI smoke test grep for it.
			hz := map[string]any{"status": "ok", "role": "standalone", "epoch": int64(0), "watermark": int64(0)}
			if fn != nil {
				st := fn.status()
				for _, k := range []string{"role", "epoch", "watermark", "fenced", "node_id"} {
					if v, ook := st[k]; ook {
						hz[k] = v
					}
				}
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(hz)
		})
		mux.Handle("/trace", trace.Handler(rec))
		mux.HandleFunc("/replstatus", func(w http.ResponseWriter, _ *http.Request) {
			st := map[string]any{"role": "standalone", "watermark": int64(0)}
			if fn != nil {
				st = fn.status()
			}
			st["addr"] = srv.Addr().String()
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(st)
		})
		mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "promote is a POST", http.StatusMethodNotAllowed)
				return
			}
			if fn == nil || !fn.isReplica() {
				http.Error(w, "not a replica", http.StatusBadRequest)
				return
			}
			ver, err := fn.promoteAt(0)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"promoted_at": ver})
		})
		// net/http/pprof registers on DefaultServeMux as an import side
		// effect; route the private mux's pprof paths to the same handlers
		// so nothing else accidentally exposed on the default mux is served.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		msrv = &http.Server{Handler: mux}
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics server failed", "err", err)
			}
		}()
		logger.Info("observability endpoint up", "addr", mln.Addr().String(),
			"paths", "/metrics /healthz /debug/pprof/")
	}

	// Arm the failure detector last: everything it drives — the serving
	// layer, the replication endpoints, the metrics — is up.
	if fn != nil {
		fn.start()
	}

	stopCkpt := make(chan struct{})
	ckptDone := make(chan struct{})
	if fn != nil && *checkpt > 0 {
		go func() {
			defer close(ckptDone)
			t := time.NewTicker(*checkpt)
			defer t.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-t.C:
					start := time.Now()
					// Skipped while the node is not holding the primary
					// durable store (replicas checkpoint on bootstrap).
					ver, ran, err := fn.checkpoint()
					switch {
					case err != nil:
						logger.Error("checkpoint failed", "err", err)
					case ran:
						logger.Info("checkpoint written", "version", ver,
							"took", time.Since(start).String())
					}
				}
			}
		}()
	} else {
		close(ckptDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	logger.Info("shutting down", "signal", s.String())
	close(stopCkpt)
	<-ckptDone
	if msrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		msrv.Shutdown(ctx)
		cancel()
	}
	if err := srv.Close(); err != nil {
		logger.Warn("listener close", "err", err)
	}
	if fn != nil {
		if err := fn.stop(); err != nil {
			fatal("store close failed", "err", err)
		}
	}
	// All server goroutines have joined (srv.Close waits); report the
	// residual count so smoke tests can assert nothing leaked. Smoke tests
	// grep for the "clean shutdown" substring.
	logger.Info("clean shutdown", "goroutines", runtime.NumGoroutine())
}
