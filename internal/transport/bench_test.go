package transport_test

import (
	"sync/atomic"
	"testing"
	"time"

	"twobitreg/internal/proto"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// benchMeshPair builds two connected meshes, counting the receiver's
// deliveries.
func benchMeshPair(b testing.TB, delivered *atomic.Int64) *transport.Mesh {
	b.Helper()
	queue := transport.WithQueueCap(1 << 16)
	a, err := transport.NewMesh(0, 2, "127.0.0.1:0", wire.Codec{}, func(int, proto.Message) {}, queue)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { a.Close() })
	recv, err := transport.NewMesh(1, 2, "127.0.0.1:0", wire.Codec{}, func(int, proto.Message) {
		delivered.Add(1)
	}, queue)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { recv.Close() })
	addrs := []string{a.Addr(), recv.Addr()}
	if err := a.SetPeers(addrs); err != nil {
		b.Fatal(err)
	}
	if err := recv.SetPeers(addrs); err != nil {
		b.Fatal(err)
	}
	// Prime the link so the measured loop never pays the initial dial.
	if err := a.Send(1, seqMsg(0)); err != nil {
		b.Fatal(err)
	}
	for delivered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	delivered.Store(0)
	return a
}

// TestMeshSendAllocs pins what BenchmarkMeshSend's allocs/op column reads:
// sending one frame on a connected pair and delivering it on the far side
// allocates 4 times. The encode buffer, the batch slice and the receive
// frame buffer are reused.
func TestMeshSendAllocs(t *testing.T) {
	var delivered atomic.Int64
	a := benchMeshPair(t, &delivered)
	var sent int64
	allocs := testing.AllocsPerRun(200, func() {
		sent++
		if err := a.Send(1, seqMsg(uint64(sent))); err != nil {
			t.Fatal(err)
		}
		for delivered.Load() < sent {
			time.Sleep(10 * time.Microsecond)
		}
	})
	if allocs != 4 {
		t.Fatalf("sending and delivering one frame allocates %v times, want 4", allocs)
	}
}

// BenchmarkMeshSend measures the TCP send path end to end (Send through
// delivery on the remote mesh) and reports the batching ratio: a sender's
// drain coalesces the frames queued behind the write in flight into one
// conn.Write, so the ratio rises above 1 only under concurrent senders
// (E-TCP1). allocs/op covers both the send path (reused encode buffers)
// and the receive path (reused frame buffer) — the zero-alloc claims of
// the pipelined transport.
func BenchmarkMeshSend(b *testing.B) {
	run := func(b *testing.B, parallel bool) {
		var delivered atomic.Int64
		a := benchMeshPair(b, &delivered)
		b.ReportAllocs()
		b.ResetTimer()
		if parallel {
			var i atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := a.Send(1, seqMsg(uint64(i.Add(1)))); err != nil {
						b.Error(err)
						return
					}
				}
			})
		} else {
			for i := 0; i < b.N; i++ {
				if err := a.Send(1, seqMsg(uint64(i+1))); err != nil {
					b.Fatal(err)
				}
			}
		}
		for delivered.Load() < int64(b.N) {
			time.Sleep(100 * time.Microsecond)
		}
		b.StopTimer()
		st := a.Stats()
		if st.FramesDropped != 0 {
			b.Fatalf("%d frames dropped on a live link", st.FramesDropped)
		}
		b.ReportMetric(st.FramesPerWrite(), "frames/write")
	}
	b.Run("serial/batched", func(b *testing.B) { run(b, false) })
	b.Run("burst/batched", func(b *testing.B) { run(b, true) })
}
