package serve

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/serve/leaktest"
)

// TestStalledHeaderIsDropped holds the daemon's header deadline: a client
// that sends half a request line and then stalls is disconnected by the
// server after readHeaderTimeout instead of holding the socket open.
func TestStalledHeaderIsDropped(t *testing.T) {
	leaktest.Check(t)
	srv := NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /heal")); err != nil {
		t.Fatal(err)
	}
	// The client's own deadline is well past the server's, so a timeout
	// here means the server never gave up on the header.
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server still held the stalled connection after %v", time.Since(start).Round(time.Second))
	}
}
