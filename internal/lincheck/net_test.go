package lincheck

import (
	"net"
	"testing"

	"repro/internal/server"
	"repro/jiffy"
	"repro/jiffy/client"
	"repro/jiffy/durable"
)

// netTarget drives a jiffyd server through the real client over real TCP,
// so the recorded histories cover the full stack: client encode, pipeline
// correlation, server decode, store execution, response path. Anything
// that reorders effects anywhere along that path — a response matched to
// the wrong id, a batch applied non-atomically, a connection executing
// frames out of arrival order — shows up as a non-linearizable history.
type netTarget struct {
	t *testing.T
	c *client.Client[uint64, uint64]
}

func (nt *netTarget) Get(k int) (int, bool) {
	v, ok, err := nt.c.Get(uint64(k))
	if err != nil {
		nt.t.Errorf("net get: %v", err)
		return 0, false
	}
	return int(v), ok
}

func (nt *netTarget) Put(k, v int) {
	if err := nt.c.Put(uint64(k), uint64(v)); err != nil {
		nt.t.Errorf("net put: %v", err)
	}
}

func (nt *netTarget) Remove(k int) bool {
	ok, err := nt.c.Remove(uint64(k))
	if err != nil {
		nt.t.Errorf("net remove: %v", err)
	}
	return ok
}

func (nt *netTarget) Batch(keys []int, vals []int, removes []bool) {
	ops := make([]jiffy.BatchOp[uint64, uint64], len(keys))
	for i, k := range keys {
		ops[i] = jiffy.BatchOp[uint64, uint64]{Key: uint64(k), Val: uint64(vals[i]), Remove: removes[i]}
	}
	if err := nt.c.BatchUpdate(ops); err != nil {
		nt.t.Errorf("net batch: %v", err)
	}
}

// runNetBattery records histories against a fresh server per seed and
// checks each for linearizability. Every goroutine issues its operations
// through one shared pooled client (8 connections), so concurrent ops
// travel on different sockets and execute on different server goroutines.
func runNetBattery(t *testing.T, seeds uint64) {
	codec := durable.Codec[uint64, uint64]{Key: durable.Uint64Enc(), Value: durable.Uint64Enc()}
	for seed := uint64(0); seed < seeds; seed++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := server.Serve(ln, server.NewMemStore(jiffy.NewSharded[uint64, uint64](4)), codec, server.Options{})
		c, err := client.Dial(srv.Addr().String(), codec, client.Options{Conns: 8})
		if err != nil {
			srv.Close()
			t.Fatalf("dial: %v", err)
		}
		h := Record(&netTarget{t: t, c: c}, RecordConfig{
			Goroutines: 8, OpsPerG: 3, Keys: 4, Seed: seed, BatchFrac: 0.3,
		})
		c.Close()
		if err := srv.Close(); err != nil {
			t.Fatalf("server close: %v", err)
		}
		if t.Failed() {
			t.Fatalf("seed %d: network errors during recording", seed)
		}
		if !Check(h, nil) {
			t.Fatalf("seed %d: network history not linearizable:\n%+v", seed, h)
		}
	}
}

// TestNetworkLinearizable checks end-to-end linearizability through the
// server: 8 goroutines over an 8-connection pool, mixed point ops
// and atomic batches on a 4-key space (small enough that operations
// genuinely collide). The subtest is named after the serving core.
func TestNetworkLinearizable(t *testing.T) {
	seeds := uint64(30)
	if testing.Short() {
		seeds = 8
	}
	t.Run(server.Mode{}.String(), func(t *testing.T) { runNetBattery(t, seeds) })
}
