package dnsnet

import (
	"context"
	"sync"
	"testing"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// echoHandler answers every A query with a fixed address and mirrors ECS
// with a /24 scope.
func echoHandler(answer netx.Addr) Handler {
	return HandlerFunc(func(_ context.Context, _ netx.Addr, q *dnswire.Message) *dnswire.Message {
		r := q.Reply()
		r.RecursionAvailable = true
		r.Answers = []dnswire.RR{{
			Name: q.Question().Name, Class: dnswire.ClassINET, TTL: 60,
			Data: dnswire.A{Addr: answer},
		}}
		if r.EDNS != nil && r.EDNS.ECS != nil {
			r.EDNS.ECS.ScopePrefixLen = 24
		}
		return r
	})
}

func TestMemNetExchange(t *testing.T) {
	for _, codec := range []bool{true, false} {
		n := NewMemNet(codec)
		n.Register("dns.example", echoHandler(netx.MustParseAddr("192.0.2.53")))
		cl := n.Client(netx.MustParseAddr("10.0.0.1"))

		q := dnswire.NewQuery(77, "www.google.com", dnswire.TypeA).
			WithECS(netx.MustParsePrefix("198.51.100.0/24"))
		resp, err := cl.Exchange(context.Background(), "dns.example", q)
		if err != nil {
			t.Fatalf("codec=%v: %v", codec, err)
		}
		if resp.ID != 77 || len(resp.Answers) != 1 {
			t.Fatalf("codec=%v: bad response %+v", codec, resp)
		}
		if resp.EDNS == nil || resp.EDNS.ECS == nil || resp.EDNS.ECS.ScopePrefixLen != 24 {
			t.Errorf("codec=%v: ECS scope not returned", codec)
		}
	}
}

func TestMemNetUnknownServer(t *testing.T) {
	n := NewMemNet(false)
	cl := n.Client(0)
	_, err := cl.Exchange(context.Background(), "nowhere", dnswire.NewQuery(1, "x.org", dnswire.TypeA))
	if err != ErrNoSuchServer {
		t.Errorf("err = %v, want ErrNoSuchServer", err)
	}
}

func TestMemNetDropIsTimeout(t *testing.T) {
	n := NewMemNet(false)
	n.Register("blackhole", HandlerFunc(func(context.Context, netx.Addr, *dnswire.Message) *dnswire.Message {
		return nil
	}))
	_, err := n.Client(0).Exchange(context.Background(), "blackhole", dnswire.NewQuery(1, "x.org", dnswire.TypeA))
	if err != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestMemNetSourceAddrVisible(t *testing.T) {
	n := NewMemNet(false)
	var got netx.Addr
	n.Register("s", HandlerFunc(func(_ context.Context, from netx.Addr, q *dnswire.Message) *dnswire.Message {
		got = from
		return q.Reply()
	}))
	src := netx.MustParseAddr("203.0.113.9")
	if _, err := n.Client(src).Exchange(context.Background(), "s", dnswire.NewQuery(2, "y.org", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	if got != src {
		t.Errorf("server saw %v, want %v", got, src)
	}
}

func TestMemNetDeregister(t *testing.T) {
	n := NewMemNet(false)
	n.Register("s", echoHandler(1))
	n.Deregister("s")
	if _, err := n.Client(0).Exchange(context.Background(), "s", dnswire.NewQuery(1, "x.org", dnswire.TypeA)); err != ErrNoSuchServer {
		t.Errorf("err = %v, want ErrNoSuchServer", err)
	}
}

func TestMemNetCanceledContext(t *testing.T) {
	n := NewMemNet(false)
	n.Register("s", echoHandler(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Client(0).Exchange(ctx, "s", dnswire.NewQuery(1, "x.org", dnswire.TypeA)); err == nil {
		t.Error("exchange on canceled context succeeded")
	}
}

// TestLoopbackUDPAndTCP runs the real-socket server and both clients over
// loopback — the same path cmd/cachescan uses against live servers.
func TestLoopbackUDPAndTCP(t *testing.T) {
	srv := NewServer(echoHandler(netx.MustParseAddr("192.0.2.99")))
	udpAddr, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpAddr, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	q := dnswire.NewQuery(42, "www.wikipedia.org", dnswire.TypeA).
		WithECS(netx.MustParsePrefix("198.51.100.0/24"))

	udp := &UDPClient{Timeout: 2 * time.Second}
	resp, err := udp.Exchange(context.Background(), udpAddr.String(), q)
	if err != nil {
		t.Fatalf("UDP exchange: %v", err)
	}
	if a, ok := resp.Answers[0].Data.(dnswire.A); !ok || a.Addr != netx.MustParseAddr("192.0.2.99") {
		t.Errorf("UDP answer = %+v", resp.Answers[0].Data)
	}

	tcp := &TCPClient{Timeout: 2 * time.Second}
	defer tcp.Close()
	for i := 0; i < 3; i++ { // exercise connection reuse
		q := dnswire.NewQuery(uint16(100+i), "www.google.com", dnswire.TypeA)
		resp, err := tcp.Exchange(context.Background(), tcpAddr.String(), q)
		if err != nil {
			t.Fatalf("TCP exchange %d: %v", i, err)
		}
		if resp.ID != uint16(100+i) {
			t.Errorf("TCP response ID = %d", resp.ID)
		}
	}
}

func TestLoopbackConcurrentClients(t *testing.T) {
	srv := NewServer(echoHandler(1))
	udpAddr, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			cl := &UDPClient{Timeout: 2 * time.Second}
			resp, err := cl.Exchange(context.Background(), udpAddr.String(),
				dnswire.NewQuery(id, "concurrent.test", dnswire.TypeA))
			if err != nil {
				errs <- err
				return
			}
			if resp.ID != id {
				errs <- ErrIDMismatch
			}
		}(uint16(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(echoHandler(1))
	if _, err := srv.ListenUDP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ListenUDP("127.0.0.1:0"); err != ErrServerClosed {
		t.Errorf("ListenUDP after close: %v", err)
	}
}

func TestTokenBucketSimClock(t *testing.T) {
	clock := clockx.NewSim(time.Time{})
	b := NewTokenBucket(clock, 10, 5) // 10/s, burst 5

	// The burst drains immediately.
	for i := 0; i < 5; i++ {
		if !b.Allow() {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if b.Allow() {
		t.Fatal("token granted beyond burst")
	}
	// After 100 simulated ms, one token.
	clock.Advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("token not refilled after 100ms at 10/s")
	}
	if b.Allow() {
		t.Fatal("second token granted too early")
	}
}

func TestTokenBucketWaitAdvancesSimClock(t *testing.T) {
	clock := clockx.NewSim(time.Time{})
	b := NewTokenBucket(clock, 50, 1)
	start := clock.Now()
	for i := 0; i < 101; i++ {
		b.Wait()
	}
	elapsed := clock.Now().Sub(start)
	// 101 tokens at 50/s with burst 1: ~2 simulated seconds.
	if elapsed < 1900*time.Millisecond || elapsed > 2200*time.Millisecond {
		t.Errorf("100 waits advanced clock by %v, want ~2s", elapsed)
	}
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	clock := clockx.NewSim(time.Time{})
	b := NewTokenBucket(clock, 1000, 3)
	clock.Advance(time.Hour) // refill far beyond burst
	granted := 0
	for b.Allow() {
		granted++
		if granted > 10 {
			break
		}
	}
	if granted != 3 {
		t.Errorf("granted %d tokens after long idle, want burst cap 3", granted)
	}
}

// TestMemNetRegisterDuringExchange mounts and unmounts handlers while
// other goroutines exchange through the network: every exchange with the
// stable server must succeed, every exchange with the churning one must
// either succeed or report ErrNoSuchServer, and the race detector must
// stay quiet.
func TestMemNetRegisterDuringExchange(t *testing.T) {
	n := NewMemNet(false)
	n.Register("stable", echoHandler(netx.MustParseAddr("192.0.2.1")))
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		h := echoHandler(netx.MustParseAddr("192.0.2.2"))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				n.Register("churn", h)
			} else {
				n.Deregister("churn")
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := n.Client(netx.AddrFrom4(10, 0, 0, byte(g)))
			for i := 0; i < 500; i++ {
				q := dnswire.NewQuery(uint16(i), "www.google.com", dnswire.TypeA)
				if _, err := cl.Exchange(context.Background(), "stable", q); err != nil {
					t.Errorf("stable server: %v", err)
					return
				}
				if _, err := cl.Exchange(context.Background(), "churn", q); err != nil && err != ErrNoSuchServer {
					t.Errorf("churning server: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}
