package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"chameleon/internal/sim"
)

// cachedHit runs spec to completion on c's server and resubmits it,
// returning the resubmission's status: a cache hit, done on arrival.
func cachedHit(tb testing.TB, c *Client, spec JobSpec) JobStatus {
	tb.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		tb.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
		tb.Fatalf("job %s: state %s, err %v (%s)", st.ID, st.State, err, st.Error)
	}
	hit, err := c.Submit(ctx, spec)
	if err != nil {
		tb.Fatal(err)
	}
	if hit.State != StateDone || !hit.Cached {
		tb.Fatalf("resubmission: state %s, cached %v; want a done cache hit", hit.State, hit.Cached)
	}
	return hit
}

// TestHitResultPassesThroughRaw: a cache hit's result reaches a
// *json.RawMessage target as the result cache holds it, byte for byte,
// and as a plain GET of /result serves it. A typed target still decodes,
// so a malformed body is still an error there.
func TestHitResultPassesThroughRaw(t *testing.T) {
	s, ts, c := newHTTPServer(t, Options{Workers: 1})
	ctx := context.Background()
	hit := cachedHit(t, c, fastSpec(90))

	var raw json.RawMessage
	if err := c.Result(ctx, hit.ID, &raw); err != nil {
		t.Fatal(err)
	}
	cached, ok := s.cache.Load(hit.Hash)
	if !ok {
		t.Fatal("hit's result is not in the cache")
	}
	if string(raw) != cached {
		t.Errorf("raw result (%d B) differs from the cached bytes (%d B)", len(raw), len(cached))
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + hit.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, body) {
		t.Errorf("raw result differs from the body of GET /result")
	}

	const malformed = `{"policy": "pom", "cores": [`
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, malformed)
	}))
	defer bad.Close()
	bc := NewClient(bad.URL)
	var res sim.Result
	if err := bc.Result(ctx, "j1", &res); err == nil {
		t.Error("a malformed 200 body decoded into *sim.Result without an error")
	}
	if err := bc.Result(ctx, "j1", &raw); err != nil || string(raw) != malformed {
		t.Errorf("raw target got %.40q, err %v; want the body as served", raw, err)
	}
}

// TestResultHasContentLength: /result declares its length, so a
// result larger than net/http's sizing buffer is not sent chunked.
func TestResultHasContentLength(t *testing.T) {
	_, ts, c := newHTTPServer(t, Options{Workers: 1})
	hit := cachedHit(t, c, fastSpec(91))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + hit.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 2048 {
		t.Fatalf("result is %d B; the test needs one over net/http's 2 KiB sizing buffer", len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v for a %d B body; want the length and no chunking",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

// BenchmarkHitRoundTrip times a cache hit over loopback HTTP as a
// client sees it: each op submits a cached sim job and fetches its
// result raw.
//
//	go test -run '^$' -bench HitRoundTrip -benchmem ./internal/server
func BenchmarkHitRoundTrip(b *testing.B) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	c := NewClient(ts.URL)
	ctx := context.Background()
	spec := fastSpec(92)
	cachedHit(b, c, spec)
	var raw json.RawMessage
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.Submit(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Result(ctx, st.ID, &raw); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(raw)), "result_B")
}
