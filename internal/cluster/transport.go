package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Peer-protocol paths served by a clustered chamd node. The server
// package registers the handlers; they live here so both sides of the
// wire agree on the URLs.
const (
	// GossipPath accepts a Digest POST and replies with the local view.
	GossipPath = "/v1/cluster/gossip"
	// MembersPath reports the local membership and ring (diagnostics).
	MembersPath = "/v1/cluster/members"
	// CachePath prefixed to a result hash serves GET (peer lookup) and
	// PUT (peer fill) of cached result bytes.
	CachePath = "/v1/cluster/cache/"
	// StealPath accepts an idle node's ask for queued jobs; the node
	// answers how many it hands over, then submits them to the asker.
	StealPath = "/v1/cluster/steal"
)

// ForwardedHeader is the single-hop loop guard: a submit carrying it
// was already routed by the named node and must be served locally.
const ForwardedHeader = "X-Chameleon-Forwarded"

// maxPeerBody bounds any peer response we are willing to buffer.
const maxPeerBody = 64 << 20

// ReadBody reads a response body of at most limit bytes. A longer
// body is an error, never a silent cut: a truncated result would
// otherwise pass through as a short one, or fail to decode with a
// misleading message. A body of declared length is read into one
// buffer of that size.
func ReadBody(resp *http.Response, limit int64) ([]byte, error) {
	n := resp.ContentLength
	if n > limit {
		return nil, fmt.Errorf("response body of %d bytes exceeds %d", n, limit)
	}
	if n >= 0 {
		data := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("response body exceeds %d bytes", limit)
	}
	return data, nil
}

// DoJSON performs one JSON request against a peer: in (if non-nil) is
// the request body, out (if non-nil) receives the decoded response.
// Non-2xx responses are returned as *PeerError.
func DoJSON(ctx context.Context, hc *http.Client, method, url string, in, out any) error {
	return DoJSONHeader(ctx, hc, method, url, nil, in, out)
}

// DoJSONHeader is DoJSON with extra request headers (e.g. the
// single-hop ForwardedHeader on a routed submit).
func DoJSONHeader(ctx context.Context, hc *http.Client, method, url string, hdr map[string]string, in, out any) error {
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
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := ReadBody(resp, maxPeerBody)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &PeerError{Status: resp.StatusCode, URL: url, Body: string(truncate(data, 200))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// GetBytes fetches a raw (non-JSON-enveloped) peer payload, e.g. a
// cached result. A 404 returns (nil, false, nil).
func GetBytes(ctx context.Context, hc *http.Client, url string) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	data, err := ReadBody(resp, maxPeerBody)
	if err != nil {
		return nil, false, err
	}
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, false, nil
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		return nil, false, &PeerError{Status: resp.StatusCode, URL: url, Body: string(truncate(data, 200))}
	}
	return data, true, nil
}

// PutBytes uploads a raw peer payload (e.g. a peer cache fill).
func PutBytes(ctx context.Context, hc *http.Client, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &PeerError{Status: resp.StatusCode, URL: url, Body: string(truncate(data, 200))}
	}
	return nil
}

// ReadJSON decodes a JSON request body of at most maxBytes.
func ReadJSON(w http.ResponseWriter, r *http.Request, out any, maxBytes int64) error {
	if maxBytes <= 0 {
		maxBytes = maxPeerBody
	}
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes)).Decode(out)
}

// WriteJSON writes v as a JSON response with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// PeerError is a non-2xx peer response.
type PeerError struct {
	Status int
	URL    string
	Body   string
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("peer %s: HTTP %d: %s", e.URL, e.Status, e.Body)
}

func truncate(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}
