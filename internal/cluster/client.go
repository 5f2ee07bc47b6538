package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Client is the HTTP client nodes use to talk to their peers: one
// shared transport with bounded per-peer connection reuse, a short dial
// timeout (an unreachable peer must fail fast so the caller can degrade
// to a local solve), and retry-with-backoff on transport errors.
//
// Retrying a solve POST is safe because solves are pure functions of
// the request — the worst a duplicate delivery can cost the owner is a
// single-flight coalesce or a cache hit, never a different answer.
// Only transport-level failures (dial refused, connection reset before
// a response) are retried; any HTTP response, success or failure, is
// returned to the caller as-is, since the owner has already seen the
// request.
type Client struct {
	hc *http.Client

	// retries, backoff and sleep are the retry budget, the base delay
	// and the inter-retry wait: maxRetries, baseBackoff and a timer in
	// production, replaceable by tests.
	retries int
	backoff time.Duration
	sleep   func(ctx context.Context, d time.Duration) error
}

// The peer client's fixed tuning.  Per peer: at most maxIdlePerPeer
// idle kept-alive connections and maxConnsPerPeer total, so one hot
// owner cannot exhaust the proxy's descriptors.  dialTimeout bounds
// connection establishment: the owner-unreachable detection latency,
// and therefore the worst extra latency before a fallback local solve
// starts.  A transport-failed call is retried up to maxRetries times,
// with exponential backoff from baseBackoff (25ms, then 50ms).
const (
	maxIdlePerPeer  = 4
	maxConnsPerPeer = 16
	dialTimeout     = 2 * time.Second
	maxRetries      = 2
	baseBackoff     = 25 * time.Millisecond
)

// NewClient builds a peer client.
func NewClient() *Client {
	transport := &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   dialTimeout,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConnsPerHost: maxIdlePerPeer,
		MaxConnsPerHost:     maxConnsPerPeer,
		IdleConnTimeout:     90 * time.Second,
		// No ResponseHeaderTimeout: a forwarded solve's headers arrive
		// only when the owner finishes computing, which may legitimately
		// take as long as the caller's context allows.  Cancellation is
		// the caller's context, not a transport timer.
	}
	return &Client{
		hc:      &http.Client{Transport: transport},
		retries: maxRetries,
		backoff: baseBackoff,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	}
}

// PostJSON posts body to url under ctx and returns the response body
// and status.  Transport errors are retried with exponential backoff up
// to the retry budget; an exhausted budget returns the last
// error.  Any HTTP response — including 4xx/5xx — is a successful call
// at this layer: the peer spoke, and what it said is the caller's
// business.
func (c *Client) PostJSON(ctx context.Context, url string, body []byte) ([]byte, int, error) {
	return c.do(ctx, http.MethodPost, url, body)
}

func (c *Client) do(ctx context.Context, method, url string, body []byte) ([]byte, int, error) {
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff<<(attempt-1)); err != nil {
				return nil, 0, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return nil, 0, err // malformed URL: retrying cannot help
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		return data, resp.StatusCode, nil
	}
	return nil, 0, fmt.Errorf("cluster: %s %s failed after %d attempts: %w",
		method, url, c.retries+1, lastErr)
}

// CloseIdle drops every idle kept-alive connection; tests and shutdown
// paths use it so a closed cluster leaves no lingering sockets.
func (c *Client) CloseIdle() {
	c.hc.CloseIdleConnections()
}
