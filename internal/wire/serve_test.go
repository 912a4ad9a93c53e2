package wire

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"
)

// echoHandler answers with the request's epoch, so tests can match
// responses to requests.
func echoHandler(req *Request) (*Response, error) {
	return &Response{Epoch: req.Epoch}, nil
}

func startServer(t *testing.T, cfg ServeConfig, handle Handler) (*NetServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewNetServer(handle, cfg)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func TestNetServerConcurrentClients(t *testing.T) {
	srv, addr := startServer(t, ServeConfig{}, echoHandler)
	const clients, perClient = 10, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		bc := dialBinary(t, addr)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				epoch := uint64(c*1000 + i)
				resp, err := bc.RoundTrip(&Request{Client: ClientID(c), Epoch: epoch, Catalog: true})
				if err != nil {
					errs <- err
					return
				}
				if resp.Epoch != epoch {
					t.Errorf("client %d: got epoch %d, want %d", c, resp.Epoch, epoch)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := srv.Stats().Snapshot()
	if snap.Requests != clients*perClient {
		t.Errorf("requests = %d, want %d", snap.Requests, clients*perClient)
	}
	if snap.TotalConns != clients {
		t.Errorf("total conns = %d, want %d", snap.TotalConns, clients)
	}
}

// TestNetServerClosesNonPreambleStream: a connection whose first nine bytes
// are not a valid handshake preamble — a foreign protocol, a wrong version,
// an unknown role byte, non-zero reserved bytes — is closed without a single
// byte of reply, on the serving path and on the connection-limit reject path
// alike.
func TestNetServerClosesNonPreambleStream(t *testing.T) {
	bad := map[string][9]byte{
		"foreign":  {'G', 'E', 'T', ' ', '/', ' ', 'H', 'T', 'T'},
		"version":  {0xF8, 'P', 'R', 'W', ProtoVersion + 1, 0, 0, 0, 0},
		"role":     handshakePreamble(0x7f),
		"reserved": {0xF8, 'P', 'R', 'W', ProtoVersion, 0, 0, 0, 1},
	}
	probe := func(t *testing.T, addr string, stream [9]byte) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(stream[:]); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// EOF (or a reset) is the close; a timeout means the server kept
		// the stream open.
		n, err := conn.Read(make([]byte, 1))
		if n != 0 || err == nil || isTimeout(err) {
			t.Fatalf("read after bad preamble: n=%d err=%v, want a close without reply", n, err)
		}
	}

	srv, addr := startServer(t, ServeConfig{}, echoHandler)
	for name, stream := range bad {
		t.Run(name, func(t *testing.T) { probe(t, addr, stream) })
	}
	if got := srv.Stats().Snapshot().Requests; got != 0 {
		t.Errorf("requests = %d, want 0", got)
	}

	// The reject path of a full server applies the same rule.
	block := make(chan struct{})
	defer close(block)
	full, fullAddr := startServer(t, ServeConfig{MaxConns: 1}, func(*Request) (*Response, error) {
		<-block
		return &Response{}, nil
	})
	first := dialBinary(t, fullAddr)
	go func() { _, _ = first.RoundTrip(&Request{Catalog: true}) }()
	deadline := time.Now().Add(2 * time.Second)
	for full.Stats().ActiveConns.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first connection never became active")
		}
		time.Sleep(time.Millisecond)
	}
	probe(t, fullAddr, bad["role"])
	if got := full.Stats().RejectedConns.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// draining is a server caught mid-Shutdown: one request is parked in its
// handler until release is signalled, and Shutdown runs in the background.
type draining struct {
	addr         string
	release      chan struct{}
	inflight     chan error
	shutdownDone chan error
}

// startDraining warms a connection, parks a request on it, then starts a
// graceful Shutdown and gives it a moment to close the listener.
func startDraining(t *testing.T) *draining {
	t.Helper()
	started := make(chan struct{})
	d := &draining{
		release:      make(chan struct{}),
		inflight:     make(chan error, 1),
		shutdownDone: make(chan error, 1),
	}
	srv, addr := startServer(t, ServeConfig{}, func(req *Request) (*Response, error) {
		if !req.Catalog {
			close(started)
			<-d.release
		}
		return &Response{Epoch: req.Epoch}, nil
	})
	d.addr = addr
	bc := dialBinary(t, addr)
	// Warm request proves the pipe works.
	if _, err := bc.RoundTrip(&Request{Catalog: true}); err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := bc.RoundTrip(&Request{Epoch: 42})
		if err == nil && resp.Epoch != 42 {
			t.Errorf("drained response epoch = %d, want 42", resp.Epoch)
		}
		d.inflight <- err
	}()
	<-started
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.shutdownDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond)
	return d
}

// finish checks that the parked request was answered and Shutdown returned
// cleanly; release must have been signalled first.
func (d *draining) finish(t *testing.T) {
	t.Helper()
	if err := <-d.inflight; err != nil {
		t.Errorf("in-flight request was not drained: %v", err)
	}
	if err := <-d.shutdownDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestNetServerGracefulShutdownDrains: while the server drains, no new
// connection completes a round trip, and the parked request is still
// answered before Shutdown returns.
func TestNetServerGracefulShutdownDrains(t *testing.T) {
	d := startDraining(t)
	// Accept may race with the listener close; what matters is that no new
	// connection completes a round trip during the drain.
	if conn, err := net.Dial("tcp", d.addr); err == nil {
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if bc2, err := NewBinaryClientConn(conn); err == nil {
			if _, err := bc2.RoundTrip(&Request{Catalog: true}); err == nil {
				t.Error("round trip succeeded during shutdown")
			}
		}
		conn.Close()
	}
	d.release <- struct{}{}
	d.finish(t)
}

func TestNetServerShutdownTimeoutForcesClose(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	srv, addr := startServer(t, ServeConfig{}, func(req *Request) (*Response, error) {
		close(started)
		<-release
		return &Response{}, nil
	})
	bc := dialBinary(t, addr)
	go func() { _, _ = bc.RoundTrip(&Request{}) }()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown = %v, want deadline exceeded", err)
	}
}
