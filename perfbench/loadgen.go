package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"clientmap/internal/netx"
)

// query is one planned request, already in wire form.
type query struct {
	dns  bool
	id   uint16
	wire []byte // DNS query message
	path string // HTTP request path
	// addr is the address an ip or miss query asks about; AS queries
	// have none.
	addr    netx.Addr
	hasAddr bool
}

// answer is what came back for one query.
type answer struct {
	ok   bool          // a response arrived
	lat  time.Duration // from send (closed loop) or due time (open loop)
	code int           // HTTP status
	body []byte        // DNS response message, or HTTP body
}

const queryTimeout = time.Second

// dnsClient is one connected UDP socket to the server.
type dnsClient struct {
	conn *net.UDPConn
	buf  []byte
}

func dialDNS(addr string) (*dnsClient, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	return &dnsClient{conn: c, buf: make([]byte, 65535)}, nil
}

// read returns the next response datagram and its message ID, or an
// error at the deadline.
func (c *dnsClient) read(deadline time.Time) ([]byte, uint16, error) {
	c.conn.SetReadDeadline(deadline)
	for {
		n, err := c.conn.Read(c.buf)
		if err != nil {
			return nil, 0, err
		}
		if n >= 12 {
			return append([]byte(nil), c.buf[:n]...), binary.BigEndian.Uint16(c.buf), nil
		}
	}
}

// exchange sends q and waits for the response with its ID; responses
// to earlier, timed-out queries are skipped.
func (c *dnsClient) exchange(q query) answer {
	start := time.Now()
	if _, err := c.conn.Write(q.wire); err != nil {
		return answer{}
	}
	for {
		body, id, err := c.read(start.Add(queryTimeout))
		if err != nil {
			return answer{}
		}
		if id == q.id {
			return answer{ok: true, lat: time.Since(start), body: body}
		}
	}
}

// httpClient is one keep-alive HTTP/1.1 connection to the server,
// redialled after a failed exchange.
type httpClient struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
}

func (c *httpClient) exchange(q query) answer {
	start := time.Now()
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, queryTimeout)
		if err != nil {
			return answer{}
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	c.conn.SetDeadline(start.Add(queryTimeout))
	a, err := c.roundTrip(q)
	if err != nil {
		c.close()
		return answer{}
	}
	a.lat = time.Since(start)
	return a
}

func (c *httpClient) roundTrip(q query) (answer, error) {
	if _, err := fmt.Fprintf(c.conn, "GET %s HTTP/1.1\r\nHost: clientmapd\r\n\r\n", q.path); err != nil {
		return answer{}, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return answer{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, err
	}
	return answer{ok: true, code: resp.StatusCode, body: body}, nil
}

func (c *httpClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// closedLoop replays qs with one DNS client and one HTTP client, each
// sending its next query only after the previous one was answered, and
// returns the wall time until both finished. onQuery, when set, wraps
// every exchange (the traced run records a span there).
func closedLoop(dnsAddr, httpAddr string, qs []query, onQuery func(q query, f func())) ([]answer, time.Duration, error) {
	dc, err := dialDNS(dnsAddr)
	if err != nil {
		return nil, 0, err
	}
	defer dc.conn.Close()
	hc := &httpClient{addr: httpAddr}
	defer hc.close()
	if onQuery == nil {
		onQuery = func(_ query, f func()) { f() }
	}
	out := make([]answer, len(qs))
	var wg sync.WaitGroup
	start := time.Now()
	for _, dns := range []bool{true, false} {
		wg.Add(1)
		go func(dns bool) {
			defer wg.Done()
			for i, q := range qs {
				if q.dns != dns {
					continue
				}
				onQuery(q, func() {
					if dns {
						out[i] = dc.exchange(q)
					} else {
						out[i] = hc.exchange(q)
					}
				})
			}
		}(dns)
	}
	wg.Wait()
	return out, time.Since(start), nil
}

// openLoop sends qs on a fixed schedule, query i due at start + i/rate,
// whether or not earlier queries were answered. One pacing goroutine
// sends every query at its due time — DNS over one UDP socket, HTTP as
// pipelined requests on one keep-alive connection — and two readers
// collect the answers, so a slow answer delays no later send. Latency is
// measured from each query's due time; due and sent are offsets from
// the start, for lateness.
func openLoop(dnsAddr, httpAddr string, qs []query, rate float64) (out []answer, due, sent []time.Duration, err error) {
	dc, err := dialDNS(dnsAddr)
	if err != nil {
		return nil, nil, nil, err
	}
	defer dc.conn.Close()
	hconn, err := net.DialTimeout("tcp", httpAddr, queryTimeout)
	if err != nil {
		return nil, nil, nil, err
	}
	defer hconn.Close()

	out = make([]answer, len(qs))
	due = make([]time.Duration, len(qs))
	sent = make([]time.Duration, len(qs))
	byID := map[uint16]int{}
	for i, q := range qs {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
		if q.dns {
			if _, dup := byID[q.id]; dup {
				return nil, nil, nil, errors.New("open loop: DNS query IDs repeat within the schedule")
			}
			byID[q.id] = i
		}
	}
	start := time.Now().Add(10 * time.Millisecond)
	last := start.Add(due[len(due)-1])
	// The HTTP reader learns which query each in-order response answers;
	// the buffer holds every send, so the pacer never waits on it.
	inFlight := make(chan int, len(qs))

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // pacer
		defer wg.Done()
		defer close(inFlight)
		defer pacer()()
		for i, q := range qs {
			waitUntil(start.Add(due[i]))
			sent[i] = time.Since(start)
			if q.dns {
				dc.conn.Write(q.wire)
			} else if _, err := fmt.Fprintf(hconn, "GET %s HTTP/1.1\r\nHost: clientmapd\r\n\r\n", q.path); err == nil {
				inFlight <- i
			}
		}
	}()
	go func() { // DNS answers, until a timeout after the last send
		defer wg.Done()
		for {
			body, id, err := dc.read(last.Add(queryTimeout))
			if err != nil {
				return
			}
			now := time.Since(start)
			if i, ok := byID[id]; ok && !out[i].ok {
				out[i] = answer{ok: true, lat: now - due[i], body: body}
			}
		}
	}()
	go func() { // HTTP answers, in request order
		defer wg.Done()
		br := bufio.NewReader(hconn)
		for i := range inFlight {
			hconn.SetReadDeadline(time.Now().Add(queryTimeout))
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return
			}
			out[i] = answer{ok: true, lat: time.Since(start) - due[i], code: resp.StatusCode, body: body}
		}
	}()
	wg.Wait()
	return out, due, sent, nil
}

// waitUntil returns at t. The Go runtime's timers wake a sleeping
// goroutine only to the millisecond, which at 4,000 queries/s would make
// most sends late, and spinning would take a CPU from the server; so a
// pacing goroutine owns its thread (see pacer) and blocks it in
// nanosleep until t. A generator that still wakes late sends everything
// overdue at once, and the lateness shows in the due-time latency and in
// the lateness report.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// pacer locks the calling goroutine to its thread and cuts the thread's
// timer slack from the kernel's default 50µs to 1µs, so waitUntil wakes
// on time. The returned function undoes the lock. The sleeping thread
// keeps its scheduler slot, so the readers run on another: the generator
// needs GOMAXPROCS ≥ 2.
func pacer() func() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return runtime.UnlockOSThread
}
