package manager

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The wire protocol of the standalone manager daemon: newline-delimited JSON
// over a UNIX domain socket, which is how VMs (Firecracker processes) reach
// the manager in the real system (Section 3.5).

// Request is one client message, for one of four verbs: "alloc" (Owner)
// grants Owner a rank, waiting in the FIFO queue while none is free;
// "release" (Owner, Rank) returns Owner's rank and refuses one Owner does
// not hold; "states" and "metrics" report the rank table and the counters.
// "alloc" and "release" need an Owner. There is no time-slicing verb: a
// socket client never brackets an operation with Acquire/EndOp, so a
// tenant preempted off its rank would stay parked.
type Request struct {
	Op    string `json:"op"`
	Owner string `json:"owner,omitempty"`
	Rank  int    `json:"rank,omitempty"`
}

// Response is one server message.
type Response struct {
	OK        bool             `json:"ok"`
	Error     string           `json:"error,omitempty"`
	Rank      int              `json:"rank,omitempty"`
	LatencyNS int64            `json:"latencyNs,omitempty"`
	States    []string         `json:"states,omitempty"`
	Metrics   map[string]int64 `json:"metrics,omitempty"`
}

// Server exposes a Manager over a listener. The prototype's thread pool
// (8 worker threads by default) bounds in-flight *requests*, not
// connections: every connection gets its own reader goroutine, and a request
// occupies a pool slot only while it is actively processed. An allocation
// that parks in the manager's FIFO waiter queue hands its slot back for the
// duration of the wait, so any number of idle persistent clients — or
// blocked allocations — can coexist with a small pool.
type Server struct {
	mgr *Manager

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	slots    chan struct{}
	closed   bool
}

// NewServer wraps a SchedNone manager (see Request) for serving, with a
// request pool of opts.Threads slots.
func NewServer(mgr *Manager) *Server {
	return &Server{
		mgr:   mgr,
		conns: make(map[net.Conn]struct{}),
		slots: make(chan struct{}, mgr.opts.Threads),
	}
}

// Serve accepts connections until Shutdown, then returns nil; called after
// Shutdown, it closes l and returns nil at once. It blocks; run it from a
// dedicated goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return nil
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Shutdown stops accepting, closes live connections and waits for their
// handlers. Blocked allocations unwind on their own retry budget; for a
// prompt shutdown close the Manager first (see cmd/vpim-manager).
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 64<<10), 64<<10)
	enc := json.NewEncoder(conn)
	for scanner.Scan() {
		var req Request
		if err := json.Unmarshal(scanner.Bytes(), &req); err != nil {
			// One malformed line must not kill a persistent client: reply
			// with the error and keep scanning.
			if enc.Encode(Response{Error: fmt.Sprintf("bad request: %v", err)}) != nil {
				return
			}
			continue
		}
		s.slots <- struct{}{} // request-pool slot
		resp := s.dispatch(req)
		<-s.slots
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
	// The scan loop also exits on a scanner error — most notably a request
	// line exceeding the buffer (bufio.ErrTooLong). Dropping the connection
	// silently leaves the client blocked on a reply it will never get; tell
	// it what happened before closing, mirroring the malformed-JSON path.
	if err := scanner.Err(); err != nil {
		_ = enc.Encode(Response{Error: fmt.Sprintf("bad request: %v", err)})
	}
}

func (s *Server) dispatch(req Request) Response {
	if (req.Op == "alloc" || req.Op == "release") && req.Owner == "" {
		return Response{Error: fmt.Sprintf("%s: missing owner", req.Op)}
	}
	switch req.Op {
	case "alloc":
		// While the allocation is parked in the manager's FIFO queue the
		// request slot is handed back, so waiting allocations cannot starve
		// the pool (releases must keep flowing to wake them).
		rank, wait, ck, err := s.mgr.alloc(req.Owner, allocHooks{
			park:   func() { <-s.slots },
			unpark: func() { s.slots <- struct{}{} },
		})
		latency := wait + ck
		if err != nil {
			return Response{Error: err.Error(), LatencyNS: int64(latency)}
		}
		return Response{OK: true, Rank: rank.Index(), LatencyNS: int64(latency)}
	case "release":
		rank, ok := s.mgr.RankByIndex(req.Rank)
		if !ok {
			return Response{Error: fmt.Sprintf("unknown rank %d", req.Rank)}
		}
		if err := s.mgr.ReleaseOwned(req.Owner, rank); err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true}
	case "states":
		states := s.mgr.States()
		out := make([]string, len(states))
		for i, st := range states {
			out[i] = st.String()
		}
		return Response{OK: true, States: out}
	case "metrics":
		return Response{OK: true, Metrics: s.mgr.Metrics()}
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// DialOptions tunes how a client dials. A daemon restarting its listener
// refuses connections briefly, so a client that gives up on the first dial
// turns the restart into a spurious tenant error; bounded retry with
// backoff rides the gap out. Only the dial retries: a request is written
// at most once (see Client).
type DialOptions struct {
	// Retries is the dial attempt budget (including the first attempt).
	// 0 selects 3.
	Retries int
	// Backoff is the pause before each re-dial, growing linearly
	// (backoff, 2*backoff, ...). 0 selects 10ms.
	Backoff time.Duration
}

func (o DialOptions) withDefaults() DialOptions {
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.Backoff == 0 {
		o.Backoff = 10 * time.Millisecond
	}
	return o
}

// Client talks to a manager daemon over its socket. It writes each request
// at most once (a resent "alloc" would grant a second rank): a transport
// failure fails the call and drops the connection, and the next call dials
// afresh.
type Client struct {
	mu      sync.Mutex
	network string
	addr    string
	opts    DialOptions
	conn    net.Conn
	enc     *json.Encoder
	read    *bufio.Reader
}

// Dial connects to the manager socket with default retry/backoff.
func Dial(network, addr string) (*Client, error) {
	return DialWith(network, addr, DialOptions{})
}

// DialWith connects to the manager socket, retrying transient dial
// failures per opts (a daemon mid-restart refuses connections briefly).
func DialWith(network, addr string, opts DialOptions) (*Client, error) {
	c := &Client{network: network, addr: addr, opts: opts.withDefaults()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.dialLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// dialLocked connects, spending the dial retry budget. Call with c.mu held
// and no live connection.
func (c *Client) dialLocked() error {
	var lastErr error
	for attempt := 0; attempt < c.opts.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * c.opts.Backoff)
		}
		conn, err := net.Dial(c.network, c.addr)
		if err != nil {
			lastErr = err
			continue
		}
		c.conn = conn
		c.enc = json.NewEncoder(conn)
		c.read = bufio.NewReaderSize(conn, 64<<10)
		return nil
	}
	return fmt.Errorf("dial manager (%d attempts): %w", c.opts.Retries, lastErr)
}

// Close releases the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// roundTrip sends one request and reads one reply, dialing first when an
// earlier failure dropped the connection. The request is never resent. The
// error wraps the transport error (io.EOF when the server closed
// mid-reply), so callers can errors.Is against the real cause.
func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		if err := c.dialLocked(); err != nil {
			return Response{}, err
		}
	}
	resp, err := c.exchangeLocked(req)
	if err != nil {
		// The connection is in an unknown state (half-written request,
		// partial reply): drop it so the next call starts clean.
		_ = c.conn.Close()
		c.conn = nil
		return Response{}, fmt.Errorf("manager: round trip: %w", err)
	}
	return resp, nil
}

// exchangeLocked performs one send+receive on the live connection.
func (c *Client) exchangeLocked(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("send: %w", err)
	}
	line, err := c.read.ReadBytes('\n')
	if err != nil {
		// Surface the transport error itself — a clean server close is
		// io.EOF here, which the caller may legitimately match on.
		return Response{}, fmt.Errorf("receive: connection closed mid-reply: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return Response{}, fmt.Errorf("decode: %w", err)
	}
	return resp, nil
}

// Alloc requests a rank for owner; it returns the rank index and the
// modeled allocation latency. The call blocks while the daemon's manager
// holds the request in its FIFO waiter queue. If the reply is lost, the
// call fails and a rank the daemon granted stays held by owner.
func (c *Client) Alloc(owner string) (int, time.Duration, error) {
	resp, err := c.roundTrip(Request{Op: "alloc", Owner: owner})
	if err != nil {
		return 0, 0, err
	}
	if !resp.OK {
		return 0, time.Duration(resp.LatencyNS), errors.New(resp.Error)
	}
	return resp.Rank, time.Duration(resp.LatencyNS), nil
}

// Release returns owner's rank by index; the daemon refuses a rank owner
// does not hold.
func (c *Client) Release(owner string, rank int) error {
	resp, err := c.roundTrip(Request{Op: "release", Owner: owner, Rank: rank})
	if err != nil {
		return err
	}
	if !resp.OK {
		return errors.New(resp.Error)
	}
	return nil
}

// States fetches the rank table states.
func (c *Client) States() ([]string, error) {
	resp, err := c.roundTrip(Request{Op: "states"})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, errors.New(resp.Error)
	}
	return resp.States, nil
}

// Metrics fetches the daemon's counter snapshot.
func (c *Client) Metrics() (map[string]int64, error) {
	resp, err := c.roundTrip(Request{Op: "metrics"})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, errors.New(resp.Error)
	}
	return resp.Metrics, nil
}
