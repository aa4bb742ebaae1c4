package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"rankjoin/internal/obs"
)

// ErrPeerDown is returned (wrapped) for RPCs against a peer that has
// exceeded the consecutive-failure threshold and is not yet due for a
// half-open probe. Scatter paths treat it like any other peer failure:
// the response degrades to partial instead of stalling on a dead peer's
// timeout.
var ErrPeerDown = errors.New("peer down")

// ErrMalformed wraps decode failures of inbound cluster payloads
// (shuffle frames, join starts) so the HTTP layer can map them to
// 400 rather than blaming the server.
var ErrMalformed = errors.New("malformed cluster payload")

// peerClient is the outbound side of one peer link: per-RPC deadlines,
// one hedged retry, passive health tracking with half-open probes, and
// the per-peer telemetry the tentpole metrics series are built from.
type peerClient struct {
	addr       string
	http       *http.Client
	rpcTimeout time.Duration
	hedgeDelay time.Duration
	probeEvery time.Duration

	rpcs    atomic.Int64
	errors  atomic.Int64
	hedges  atomic.Int64
	latency obs.Histogram // microseconds

	fails     atomic.Int64 // consecutive failures
	lastProbe atomic.Int64 // unix nanos of the last half-open probe
	lastErr   atomic.Pointer[string]
}

// downAfter is the consecutive-failure count that marks a peer down.
const downAfter = 3

// down reports whether the peer is past the failure threshold.
func (p *peerClient) down() bool { return p.fails.Load() >= downAfter }

// admit decides whether an RPC may go out. Healthy peers always pass;
// a down peer admits one probe per probeEvery window (half-open) and
// rejects the rest immediately.
func (p *peerClient) admit() bool {
	if !p.down() {
		return true
	}
	now := time.Now().UnixNano()
	last := p.lastProbe.Load()
	if now-last >= int64(p.probeEvery) && p.lastProbe.CompareAndSwap(last, now) {
		return true
	}
	return false
}

func (p *peerClient) markSuccess() { p.fails.Store(0) }

func (p *peerClient) markFailure(err error) {
	p.fails.Add(1)
	msg := err.Error()
	p.lastErr.Store(&msg)
}

// do posts body to path on this peer with at most one hedged retry:
// the duplicate launches when the first attempt has neither answered
// nor failed within hedgeDelay (tail-latency hedge), or immediately
// when it failed fast (connection refused); the first success wins.
// Callers whose requests reach do() twice must be idempotent — true of
// read-only search/get and inbox-deduplicated shuffle frames, and NOT
// of upsert/delete (a duplicate apply double-bumps the owner's shard
// epoch, corrupting the WAL/replication cursor): mutations go through
// doMutate.
func (p *peerClient) do(ctx context.Context, path string, contentType string, body []byte, timeout time.Duration) ([]byte, error) {
	return p.doHedged(ctx, path, contentType, body, timeout, true)
}

// doMutate is the non-idempotent variant: exactly one attempt, no
// tail-latency hedge and no fast-failure retry, because a duplicated
// (or ambiguously failed-then-retried) write can apply twice on the
// owner. Retry policy for mutations belongs to the caller, who knows
// the request is an upsert/delete and can re-issue it as a fresh
// intent; this layer must never duplicate one on its own.
func (p *peerClient) doMutate(ctx context.Context, path string, contentType string, body []byte, timeout time.Duration) ([]byte, error) {
	if !p.admit() {
		p.errors.Add(1)
		return nil, fmt.Errorf("cluster: peer %s: %w (last: %s)", p.addr, ErrPeerDown, p.lastError())
	}
	if timeout <= 0 {
		timeout = p.rpcTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	start := time.Now()
	p.rpcs.Add(1)
	data, err := p.once(ctx, path, contentType, body)
	p.latency.Observe(time.Since(start).Microseconds())
	if err != nil {
		p.errors.Add(1)
		p.markFailure(err)
		return nil, err
	}
	p.markSuccess()
	return data, nil
}

// doSlow is do without the tail-latency hedge, for RPCs that are
// expected to outlive the hedge delay by design (join starts run the
// entire join before acking — a timer-triggered duplicate would just
// re-ship the dataset). Fast failures still retry once.
func (p *peerClient) doSlow(ctx context.Context, path string, contentType string, body []byte, timeout time.Duration) ([]byte, error) {
	return p.doHedged(ctx, path, contentType, body, timeout, false)
}

func (p *peerClient) doHedged(ctx context.Context, path string, contentType string, body []byte, timeout time.Duration, hedgeOnTimer bool) ([]byte, error) {
	if !p.admit() {
		p.errors.Add(1)
		return nil, fmt.Errorf("cluster: peer %s: %w (last: %s)", p.addr, ErrPeerDown, p.lastError())
	}
	if timeout <= 0 {
		timeout = p.rpcTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	start := time.Now()
	p.rpcs.Add(1)
	type result struct {
		data []byte
		err  error
	}
	ch := make(chan result, 2)
	attempt := func() {
		data, err := p.once(ctx, path, contentType, body)
		ch <- result{data, err}
	}
	go attempt()

	hedge := time.NewTimer(p.hedgeDelay)
	defer hedge.Stop()
	outstanding, hedged := 1, false
	var firstErr error
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				p.markSuccess()
				p.latency.Observe(time.Since(start).Microseconds())
				return r.data, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if !hedged {
				// Fast failure before the hedge timer: retry immediately.
				hedged = true
				outstanding++
				p.hedges.Add(1)
				go attempt()
				continue
			}
			if outstanding == 0 {
				p.errors.Add(1)
				p.markFailure(firstErr)
				p.latency.Observe(time.Since(start).Microseconds())
				return nil, firstErr
			}
		case <-hedge.C:
			if hedgeOnTimer && !hedged {
				hedged = true
				outstanding++
				p.hedges.Add(1)
				go attempt()
			}
		case <-ctx.Done():
			p.errors.Add(1)
			err := fmt.Errorf("cluster: peer %s %s: %w", p.addr, path, ctx.Err())
			p.markFailure(err)
			p.latency.Observe(time.Since(start).Microseconds())
			return nil, err
		}
	}
}

// once runs a single HTTP attempt.
func (p *peerClient) once(ctx context.Context, path, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+p.addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: build request for %s%s: %w", p.addr, path, err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := p.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s %s: %w", p.addr, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s %s: read response: %w", p.addr, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("cluster: peer %s %s: %s (status %d)", p.addr, path, e.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("cluster: peer %s %s: status %d", p.addr, path, resp.StatusCode)
	}
	return data, nil
}

func (p *peerClient) lastError() string {
	if msg := p.lastErr.Load(); msg != nil {
		return *msg
	}
	return "none"
}

// postJSON marshals req, posts it (hedged), and unmarshals the
// response. Idempotent RPCs only.
func postJSON[Req, Resp any](ctx context.Context, p *peerClient, path string, req Req, timeout time.Duration) (Resp, error) {
	return postJSONWith[Req, Resp](ctx, p, p.do, path, req, timeout)
}

// postJSONMutate is postJSON over doMutate: exactly one attempt, for
// the non-idempotent write RPCs.
func postJSONMutate[Req, Resp any](ctx context.Context, p *peerClient, path string, req Req, timeout time.Duration) (Resp, error) {
	return postJSONWith[Req, Resp](ctx, p, p.doMutate, path, req, timeout)
}

func postJSONWith[Req, Resp any](ctx context.Context, p *peerClient,
	send func(context.Context, string, string, []byte, time.Duration) ([]byte, error),
	path string, req Req, timeout time.Duration) (Resp, error) {
	var resp Resp
	body, err := json.Marshal(req)
	if err != nil {
		return resp, fmt.Errorf("cluster: marshal %s request: %w", path, err)
	}
	data, err := send(ctx, path, "application/json", body, timeout)
	if err != nil {
		return resp, err
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return resp, fmt.Errorf("cluster: peer %s %s: parse response: %w", p.addr, path, err)
	}
	return resp, nil
}

// defaultHTTPClient builds the shared transport for peer links:
// persistent connections with a generous idle pool, since shuffle
// all-to-alls hit every peer at once from many goroutines.
func defaultHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// PeerStatus is one peer's health and telemetry snapshot, surfaced
// through /statusz and /metrics.
type PeerStatus struct {
	Addr      string `json:"addr"`
	Self      bool   `json:"self"`
	RPCs      int64  `json:"rpcs"`
	Errors    int64  `json:"errors"`
	Hedges    int64  `json:"hedges"`
	P50us     int64  `json:"p50_us"`
	P99us     int64  `json:"p99_us"`
	Down      bool   `json:"down"`
	Fails     int64  `json:"consecutive_failures"`
	LastError string `json:"last_error,omitempty"`
}
