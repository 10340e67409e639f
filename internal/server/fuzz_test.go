package server

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/jiffy"
)

// FuzzConnBytes feeds arbitrary byte streams — from garbage to mutated
// valid request frames — straight into a live server connection and
// asserts the contract a hostile or broken client gets: the server never
// panics, never wedges, and a well-behaved neighbor connection keeps
// working throughout. The
// fuzzed connection itself either answers frames or gets severed; both
// are legal, hanging is not.
func FuzzConnBytes(f *testing.F) {
	// Seeds: a valid pipelined exchange, a corrupt length, a giant
	// announced frame, a truncated batch, and interleavings thereof.
	ping := wire.AppendFrame(nil, 1, wire.OpPing, nil)
	put := wire.AppendFrame(nil, 2, wire.OpPut, append([]byte{8}, []byte("\x2a\x00\x00\x00\x00\x00\x00\x00\x08\x07\x00\x00\x00\x00\x00\x00\x00")...))
	badLen := []byte{3, 0, 0, 0, 1, 2, 3}
	huge := []byte{255, 255, 255, 255, 0, 0, 0, 0}
	f.Add(ping)
	f.Add(append(append([]byte{}, ping...), ping...))
	f.Add(put)
	f.Add(badLen)
	f.Add(huge)
	f.Add(append(append([]byte{}, ping...), badLen...))
	f.Add(wire.AppendFrame(nil, 3, wire.OpBatch, []byte{200}))
	f.Add(wire.AppendFrame(nil, 4, wire.OpScan, []byte{0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 9}))

	f.Fuzz(fuzzOneStream)
}

// fuzzOneStream runs one fuzz input against a fresh server: write the
// bytes, read whatever comes back, then prove the server is still healthy
// with a fresh connection's ping.
func fuzzOneStream(t *testing.T, data []byte) {
	s := jiffy.NewSharded[uint64, uint64](2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := Serve(ln, NewMemStore(s), u64Codec(), Options{})
	addr := srv.Addr().String()

	// The victim: raw bytes, no protocol discipline.
	vc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	vc.SetDeadline(time.Now().Add(5 * time.Second))
	vc.Write(data)
	// Half-close so a frame-aligned stream drains to EOF server-side;
	// then swallow responses until the server answers everything or
	// severs us. Either way this must not hang.
	if tc, ok := vc.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	io.Copy(io.Discard, vc)
	vc.Close()

	// The neighbor: a well-formed ping must still round-trip.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("neighbor dial: %v", err)
	}
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	ping := wire.AppendFrame(nil, 99, wire.OpPing, nil)
	if _, err := nc.Write(ping); err != nil {
		t.Fatalf("neighbor write: %v", err)
	}
	id, status, _, _, err := wire.ReadFrame(nc, nil)
	if err != nil || id != 99 || status != wire.StatusOK {
		t.Fatalf("neighbor ping after fuzz stream: id=%d status=%d err=%v", id, status, err)
	}
	nc.Close()

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestFuzzSeedsDirect replays the seed shapes without the fuzz driver, so
// `go test` exercises the hostile-bytes path on every CI run, not only
// when fuzzing is invoked.
func TestFuzzSeedsDirect(t *testing.T) {
	seeds := [][]byte{
		nil,
		{0, 0, 0, 0},
		{3, 0, 0, 0, 1, 2, 3},
		{255, 255, 255, 255, 0, 0, 0, 0},
		wire.AppendFrame(nil, 1, wire.OpPing, nil),
		wire.AppendFrame(nil, 3, wire.OpBatch, []byte{200}),
		bytes.Repeat([]byte{0x5a}, 4096),
	}
	for _, s := range seeds {
		fuzzOneStream(t, s)
	}
}
