package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"chameleon/internal/cluster"
	"chameleon/internal/dse"
	"chameleon/internal/sim"
)

// RetryPolicy controls how the client reacts to 503 responses (queue
// full / draining): exponential backoff with jitter, honoring the
// server's Retry-After header as a floor.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt (default 3).
	Max int
	// Base is the first backoff delay (default 100ms); attempt n waits
	// Base * 2^n plus up to 50% jitter.
	Base time.Duration
	// Cap bounds any single delay (default 2s).
	Cap time.Duration
	// Disabled turns retries off: the first 503 is returned to the
	// caller immediately.
	Disabled bool
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Max <= 0 {
		p.Max = 3
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 2 * time.Second
	}
	return p
}

// delay computes the backoff before retry attempt n (0-based),
// honoring retryAfter (from the server's Retry-After header) as a
// floor and Cap as a ceiling.
func (p RetryPolicy) delay(n int, retryAfter time.Duration) time.Duration {
	d := p.Base << n
	if d > p.Cap {
		d = p.Cap
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1)) // up to +50% jitter
	if retryAfter > d {
		d = retryAfter
	}
	if d > p.Cap {
		d = p.Cap
	}
	return d
}

// jobRoute remembers which cluster node actually executes a forwarded
// job so later polls go there directly instead of re-proxying.
type jobRoute struct {
	addr string // executing node's base URL
	id   string // job ID in that node's store
}

// Client is a minimal Go client for a chamd server. It is cluster
// aware: when a submission is forwarded to another node, the client
// follows the returned node_addr/remote_id and polls the executing
// node directly, falling back to the original server if that node
// disappears.
type Client struct {
	base string
	http *http.Client

	// Retry configures 503 backoff. Zero value = defaults; set
	// Disabled to fail fast.
	Retry RetryPolicy

	mu     sync.Mutex
	routes map[string]jobRoute // local job ID -> executing node
}

// NewClient targets a chamd base URL (e.g. "http://localhost:8080").
func NewClient(base string) *Client {
	return &Client{
		base:   strings.TrimRight(base, "/"),
		http:   &http.Client{},
		routes: make(map[string]jobRoute),
	}
}

// statusError carries an API error plus enough context to retry.
type statusError struct {
	code       int
	retryAfter time.Duration
	err        error
}

func (e *statusError) Error() string { return e.err.Error() }

// maxResponseBytes bounds a response the client buffers; a longer one
// is an error.
const maxResponseBytes = 64 << 20

// doOnce runs one request against an absolute URL. A *json.RawMessage
// out receives the body as served; any other out is decoded into.
func (c *Client) doOnce(ctx context.Context, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := cluster.ReadBody(resp, maxResponseBytes)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var apiErr error
		var e apiError
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			apiErr = fmt.Errorf("%s %s: %s (%d)", method, url, e.Error, resp.StatusCode)
		} else {
			apiErr = fmt.Errorf("%s %s: HTTP %d", method, url, resp.StatusCode)
		}
		var ra time.Duration
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ra = time.Duration(secs) * time.Second
		}
		return &statusError{code: resp.StatusCode, retryAfter: ra, err: apiErr}
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*json.RawMessage); ok && raw != nil {
		*raw = data // the caller asked for the bytes unparsed
		return nil
	}
	return json.Unmarshal(data, out)
}

// do runs a request against the client's base server, retrying 503s
// (a full queue is transient by design) per the retry policy.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	pol := c.Retry.withDefaults()
	var err error
	for attempt := 0; ; attempt++ {
		err = c.doOnce(ctx, method, c.base+path, in, out)
		se, ok := err.(*statusError)
		if !ok || se.code != http.StatusServiceUnavailable ||
			pol.Disabled || attempt >= pol.Max {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pol.delay(attempt, se.retryAfter)):
		}
	}
}

// setRoute records (or clears, for empty addr) a job's executing node.
func (c *Client) setRoute(id string, r jobRoute) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.addr == "" {
		delete(c.routes, id)
		return
	}
	c.routes[id] = r
}

func (c *Client) route(id string) (jobRoute, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.routes[id]
	return r, ok
}

// noteRoute learns the executing node from a returned status.
func (c *Client) noteRoute(st JobStatus) {
	if st.NodeAddr == "" || st.RemoteID == "" {
		return
	}
	if strings.TrimRight(st.NodeAddr, "/") == c.base {
		return
	}
	c.setRoute(st.ID, jobRoute{addr: strings.TrimRight(st.NodeAddr, "/"), id: st.RemoteID})
}

// Submit posts a job and returns its initial status (which is already
// terminal on a cache hit). If the cluster forwarded the job to
// another node, later Status/Wait/Result calls follow it there.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	if err == nil {
		c.noteRoute(st)
	}
	return st, err
}

// routed runs a request on job id's executing node when known (a
// forwarded job), and on the base server otherwise or if that node is
// unreachable: the route is then dropped and the forwarding server
// answers from its mirror.
func (c *Client) routed(ctx context.Context, method, id, suffix string, out any) error {
	if r, ok := c.route(id); ok {
		if err := c.doOnce(ctx, method, r.addr+"/v1/jobs/"+r.id+suffix, nil, out); err == nil {
			return nil
		}
		c.setRoute(id, jobRoute{})
	}
	return c.do(ctx, method, "/v1/jobs/"+id+suffix, nil, out)
}

// Status fetches a job's current status, from the executing node for
// forwarded jobs (with the caller's job ID restored).
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	return c.status(ctx, id, "")
}

// status is Status with an optional query (a held read's ?wait=).
func (c *Client) status(ctx context.Context, id, query string) (JobStatus, error) {
	var st JobStatus
	err := c.routed(ctx, http.MethodGet, id, query, &st)
	if err == nil {
		st.ID = id // present the caller's handle, not the remote one
		c.noteRoute(st)
	}
	return st, err
}

// Wait blocks until the job reaches a terminal state or ctx expires.
// Each round is one status read that the server holds open until the
// job ends (up to maxStatusWait).
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	for {
		st, err := c.status(ctx, id, "?wait="+maxStatusWait.String())
		if err != nil || st.State.Terminal() {
			return st, err
		}
	}
}

// Result decodes a done job's result into out (for sim jobs, a
// *sim.Result), fetching from the executing node when known. A
// *json.RawMessage out receives the served bytes unparsed: decoding
// them, and so validating them, is then the caller's.
func (c *Client) Result(ctx context.Context, id string, out any) error {
	return c.routed(ctx, http.MethodGet, id, "/result", out)
}

// SimResult fetches a done sim job's result.
func (c *Client) SimResult(ctx context.Context, id string) (*sim.Result, error) {
	var r sim.Result
	if err := c.Result(ctx, id, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Cancel cancels a queued or running job, on the executing node when
// known (the forwarding server's mirror then follows the owner's end).
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.routed(ctx, http.MethodDelete, id, "", nil)
}

// DSEResult fetches and decodes a done DSE job's sweep result.
func (c *Client) DSEResult(ctx context.Context, id string) (*dse.Result, error) {
	var r dse.Result
	if err := c.Result(ctx, id, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Workloads lists the server's workload catalogue.
func (c *Client) Workloads(ctx context.Context) ([]WorkloadInfo, error) {
	var resp struct {
		Workloads []WorkloadInfo `json:"workloads"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, &resp)
	return resp.Workloads, err
}

// Policies lists the server's registered policy designs with their
// descriptor flags.
func (c *Client) Policies(ctx context.Context) ([]PolicyInfo, error) {
	var resp struct {
		Policies []PolicyInfo `json:"policies"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/policies", nil, &resp)
	return resp.Policies, err
}

// ClusterMembers reports the server's cluster view (empty error with
// zero members on standalone servers means the endpoint is absent).
func (c *Client) ClusterMembers(ctx context.Context) ([]cluster.Node, error) {
	var resp struct {
		Members []cluster.Node `json:"members"`
	}
	err := c.do(ctx, http.MethodGet, cluster.MembersPath, nil, &resp)
	return resp.Members, err
}

// Healthy reports whether the server answers /healthz with "ok".
func (c *Client) Healthy(ctx context.Context) bool {
	var resp struct {
		Status string `json:"status"`
	}
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &resp); err != nil {
		return false
	}
	return resp.Status == "ok"
}
