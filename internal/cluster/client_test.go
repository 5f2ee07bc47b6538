package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testClient returns a peer client with the given retry budget and no
// real backoff.
func testClient(retries int) *Client {
	c := NewClient()
	c.retries = retries
	c.sleep = func(ctx context.Context, d time.Duration) error {
		select { // no real backoff in tests
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
	return c
}

func TestClientPostAndGet(t *testing.T) {
	var gotBody atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			buf := make([]byte, r.ContentLength)
			r.Body.Read(buf)
			gotBody.Store(string(buf))
			if ct := r.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("content-type = %q", ct)
			}
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	c := testClient(maxRetries)
	defer c.CloseIdle()

	body, status, err := c.PostJSON(context.Background(), ts.URL, []byte(`{"x":1}`))
	if err != nil || status != http.StatusOK || string(body) != `{"ok":true}` {
		t.Fatalf("PostJSON = %q, %d, %v", body, status, err)
	}
	if gotBody.Load() != `{"x":1}` {
		t.Fatalf("server saw body %q", gotBody.Load())
	}
	body, status, err = c.do(context.Background(), http.MethodGet, ts.URL, nil)
	if err != nil || status != http.StatusOK || string(body) != `{"ok":true}` {
		t.Fatalf("GET = %q, %d, %v", body, status, err)
	}
}

// TestClientDoesNotRetryHTTPErrors: a 4xx/5xx response means the peer
// received and processed the request; retrying would double-deliver for
// no benefit, so the client must return it as-is on the first attempt.
func TestClientDoesNotRetryHTTPErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"invalid_request"}}`))
	}))
	defer ts.Close()

	c := testClient(3)
	defer c.CloseIdle()
	body, status, err := c.PostJSON(context.Background(), ts.URL, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusBadRequest || !strings.Contains(string(body), "invalid_request") {
		t.Fatalf("got %d %q", status, body)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("HTTP error retried: %d calls", n)
	}
}

// TestClientRetriesTransportErrors: the first connections are accepted
// and slammed shut before any response; the client must retry and
// succeed once the server behaves.
func TestClientRetriesTransportErrors(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if conns.Add(1) <= 2 {
				conn.Close() // reset before a response: transport error
				continue
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				c.Read(buf)
				c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok"))
			}(conn)
		}
	}()
	defer l.Close()

	c := testClient(2)
	defer c.CloseIdle()
	body, status, err := c.do(context.Background(), http.MethodGet, "http://"+l.Addr().String(), nil)
	if err != nil {
		t.Fatalf("retries exhausted: %v (%d conns)", err, conns.Load())
	}
	if status != http.StatusOK || string(body) != "ok" {
		t.Fatalf("got %d %q", status, body)
	}
}

// TestClientExhaustsRetryBudget: a dead peer (closed port) must yield a
// final error quickly — the forwarding layer then falls back to a local
// solve.
func TestClientExhaustsRetryBudget(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close() // nothing is listening now

	c := testClient(2)
	defer c.CloseIdle()
	_, _, err = c.PostJSON(context.Background(), dead, []byte(`{}`))
	if err == nil {
		t.Fatal("expected error against dead peer")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("error does not report attempts: %v", err)
	}
}

func TestClientHonorsContextCancel(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()

	c := NewClient() // real sleep: cancel must interrupt it
	c.retries, c.backoff = 5, time.Hour
	defer c.CloseIdle()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.PostJSON(ctx, dead, []byte(`{}`))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("err = %v, want context canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not interrupt the retry loop")
	}
}
