package manager

import (
	"bufio"
	"errors"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientDialRetriesSlowListener dials before the daemon's socket
// exists: the bounded dial retry must ride out the gap and connect once
// the listener appears (a daemon mid-restart refuses connections briefly).
func TestClientDialRetriesSlowListener(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "mgr.sock")
	srv := NewServer(New(testMachine(t, 1), Options{}))
	done := make(chan error, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		l, err := net.Listen("unix", sock)
		if err != nil {
			done <- err
			return
		}
		done <- srv.Serve(l)
	}()
	client, err := DialWith("unix", sock, DialOptions{Retries: 20, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial did not ride out the listener gap: %v", err)
	}
	states, err := client.States()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 {
		t.Errorf("states = %v", states)
	}
	_ = client.Close()
	srv.Shutdown()
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}

// TestClientDialFailureWrapsCause exhausts the dial budget against a
// socket that never appears: the error must say how many attempts were
// spent and wrap the underlying dial error.
func TestClientDialFailureWrapsCause(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "absent.sock")
	_, err := DialWith("unix", sock, DialOptions{Retries: 2, Backoff: time.Millisecond})
	if err == nil {
		t.Fatal("dial to an absent socket succeeded")
	}
	if !strings.Contains(err.Error(), "2 attempts") {
		t.Errorf("dial error does not report the attempt budget: %v", err)
	}
}

// flakyServer accepts connections on l and answers each request line with
// reply — except the first drop connections, which are closed mid-reply
// (after reading the request, before answering), simulating a daemon
// crash/restart between request and response. It reports how many request
// lines the server read, over all connections.
func flakyServer(t *testing.T, l net.Listener, drop int, reply string) *atomic.Int64 {
	t.Helper()
	var lines atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn, die bool) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					if _, err := r.ReadBytes('\n'); err != nil {
						return
					}
					lines.Add(1)
					if die {
						return // close without replying: mid-reply failure
					}
					if _, err := io.WriteString(conn, reply+"\n"); err != nil {
						return
					}
				}
			}(conn, drop > 0)
			if drop > 0 {
				drop--
			}
		}
	}()
	return &lines
}

// TestClientSendsOnceOnMidReplyClose sends a request whose connection the
// server kills before answering: the call must fail rather than resend the
// request on a fresh connection, because the daemon may already have
// served it. The next call dials afresh and goes through.
func TestClientSendsOnceOnMidReplyClose(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "mgr.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lines := flakyServer(t, l, 1, `{"ok":true,"states":["NAAV"]}`)

	client, err := DialWith("unix", sock, DialOptions{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.States(); err == nil {
		t.Fatal("a request whose reply was lost succeeded")
	}
	if n := lines.Load(); n != 1 {
		t.Fatalf("server read %d request lines for one call, want 1", n)
	}
	states, err := client.States()
	if err != nil {
		t.Fatalf("the call after a lost reply did not redial: %v", err)
	}
	if len(states) != 1 || states[0] != "NAAV" {
		t.Errorf("states after redial = %v", states)
	}
}

// TestClientSurfacesUnderlyingError sends a request to a server that always
// closes mid-reply: the server must read the request once, and the error
// must wrap the real transport cause (io.EOF) so callers can errors.Is
// against it, not a synthetic replacement.
func TestClientSurfacesUnderlyingError(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "mgr.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lines := flakyServer(t, l, 1<<30, "")

	client, err := DialWith("unix", sock, DialOptions{Retries: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.States()
	if err == nil {
		t.Fatal("request against an always-crashing server succeeded")
	}
	if !errors.Is(err, io.EOF) {
		t.Errorf("error does not wrap the underlying io.EOF: %v", err)
	}
	if n := lines.Load(); n != 1 {
		t.Errorf("server read %d request lines, want 1", n)
	}
}

// lossyProxy relays request lines from clients on a fresh socket to the
// daemon at target, one daemon connection per client connection. On the
// first drop client connections it reads the daemon's reply and closes the
// client side instead of passing it on: the request took effect and its
// reply is lost.
func lossyProxy(t *testing.T, target string, drop int) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "proxy.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			client, err := l.Accept()
			if err != nil {
				return
			}
			go func(client net.Conn, lose bool) {
				defer client.Close()
				daemon, err := net.Dial("unix", target)
				if err != nil {
					return
				}
				defer daemon.Close()
				requests, replies := bufio.NewReader(client), bufio.NewReader(daemon)
				for {
					line, err := requests.ReadBytes('\n')
					if err != nil {
						return
					}
					if _, err := daemon.Write(line); err != nil {
						return
					}
					reply, err := replies.ReadBytes('\n')
					if err != nil || lose {
						return
					}
					if _, err := client.Write(reply); err != nil {
						return
					}
				}
			}(client, drop > 0)
			drop--
		}
	}()
	return sock
}

// TestClientAllocLostReplyHoldsOneRank loses the reply to an alloc the
// daemon granted: the call must fail, and the manager must hold one rank
// for the owner. A client that resent the alloc got a second rank.
func TestClientAllocLostReplyHoldsOneRank(t *testing.T) {
	mgr, sock := serveTestManager(t, 2, Options{})
	client, err := DialWith("unix", lossyProxy(t, sock, 1), DialOptions{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, _, err := client.Alloc("vmA"); !errors.Is(err, io.EOF) {
		t.Fatalf("alloc whose reply was lost = %v, want an error wrapping io.EOF", err)
	}
	held := 0
	for _, owner := range mgr.Owners() {
		if owner == "vmA" {
			held++
		}
	}
	if held != 1 {
		t.Errorf("manager holds %d ranks for vmA after one alloc, want 1", held)
	}
}
