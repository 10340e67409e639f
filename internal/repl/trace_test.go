package repl

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/trace"
)

// TestReplTraceStitching proves a traced write's ID survives the stream:
// the primary's recorder holds its wal and repl_stream spans, the
// replica's recorder a repl_apply span, all under the one client ID —
// plus batch-level repl_ack spans on the source once acks flow.
func TestReplTraceStitching(t *testing.T) {
	testutil.LeakCheck(t)
	prec, rrec := trace.NewRecorder(4096), trace.NewRecorder(4096)
	store, _, addr := startSource(t, SourceOptions{Tracer: prec})
	rep, _ := startRunner(t, addr, RunnerOptions{Tracer: rrec})

	// Interleave traced and untraced writes the way a sampling client
	// would: every seventh write carries an ID.
	traced := map[uint64]bool{}
	var last int64
	for i := 0; i < 200; i++ {
		var tc *trace.Ctx
		if i%7 == 0 {
			tid := uint64(i)*2 + 3 // odd, never 0
			tc = new(trace.Ctx)
			tc.Arm(prec, tid, 1)
			traced[tid] = true
		}
		ver, err := store.PutVT(fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i), tc)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		last = ver
	}
	waitConverged(t, store, rep, last)

	// Both recorders must join the same IDs.
	idsAt := func(r *trace.Recorder, stage trace.Stage) map[uint64]bool {
		m := map[uint64]bool{}
		for _, sp := range r.Snapshot() {
			if sp.Stage == stage && sp.Trace != 0 {
				m[sp.Trace] = true
			}
		}
		return m
	}
	// The source records a repl_stream span once the frame's socket write
	// returns, which can come after the replica has applied the frame and
	// the watermark converged: wait for the spans instead of racing the
	// source's goroutine.
	testutil.WaitFor(t, 5*time.Second, func() bool {
		got := idsAt(prec, trace.StageReplStream)
		for tid := range traced {
			if !got[tid] {
				return false
			}
		}
		return true
	}, "repl_stream spans never covered every traced ID")
	for _, probe := range []struct {
		name  string
		rec   *trace.Recorder
		stage trace.Stage
	}{
		{"primary wal", prec, trace.StageWAL},
		{"primary repl_stream", prec, trace.StageReplStream},
		{"replica repl_apply", rrec, trace.StageReplApply},
	} {
		got := idsAt(probe.rec, probe.stage)
		for tid := range traced {
			if !got[tid] {
				t.Errorf("%s: traced ID %x missing (have %d IDs)", probe.name, tid, len(got))
			}
		}
		for tid := range got {
			if !traced[tid] {
				t.Errorf("%s: unexpected ID %x", probe.name, tid)
			}
		}
	}

	// Ack round-trip spans are batch-level; they appear once the replica
	// has acked past the tail.
	testutil.WaitFor(t, 5*time.Second, func() bool {
		for _, sp := range prec.Snapshot() {
			if sp.Stage == trace.StageReplAck {
				return true
			}
		}
		return false
	}, "no repl_ack spans recorded on the source")
}
