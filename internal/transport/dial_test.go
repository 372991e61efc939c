//go:build linux

package transport_test

import (
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"

	"twobitreg/internal/proto"
	"twobitreg/internal/regclient"
	"twobitreg/internal/transport"
	"twobitreg/internal/wire"
)

// fullAcceptQueue returns the address of a listener that never accepts and
// whose accept queue is already full. The kernel drops every further SYN,
// so a connect to it hangs until the dialer gives up, as toward a host that
// drops SYNs.
func fullAcceptQueue(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 1); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	// A backlog of 1 queues two connections; the third connect hangs.
	for i := 0; ; i++ {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				t.Fatalf("filling the accept queue: %v", err)
			}
			return addr
		}
		t.Cleanup(func() { c.Close() })
		if i == 8 {
			t.Fatal("the accept queue never filled")
		}
	}
}

// TestMeshCloseBreaksHungDial: Close cancels the dial its sender is stuck
// in, instead of waiting out the kernel's SYN retries.
func TestMeshCloseBreaksHungDial(t *testing.T) {
	t.Parallel()
	m, err := transport.NewMesh(0, 2, "127.0.0.1:0", wire.Codec{}, func(int, proto.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetPeers([]string{m.Addr(), fullAcceptQueue(t)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Send(1, seqMsg(1)); err != nil { // the sender starts dialing
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // nothing observable says the connect is under way; give it time to start
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Mesh.Close is waiting for a dial that hangs")
	}
}

// TestDialNodeBoundedByHandshakeTimeout: a client connect toward a node
// that never answers fails within the mesh's HandshakeTimeout.
func TestDialNodeBoundedByHandshakeTimeout(t *testing.T) {
	t.Parallel()
	addr := fullAcceptQueue(t)
	dialed := make(chan error, 1)
	go func() {
		s, err := regclient.DialNode(addr)
		if err == nil {
			s.Close()
		}
		dialed <- err
	}()
	select {
	case err := <-dialed:
		if err == nil {
			t.Fatal("DialNode connected to a listener whose accept queue is full")
		}
	case <-time.After(transport.HandshakeTimeout + 2*time.Second):
		t.Fatal("DialNode is not bounded by HandshakeTimeout")
	}
}
