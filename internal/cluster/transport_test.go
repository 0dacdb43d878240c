package cluster

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestReadBodyLimit: a body up to the limit comes back whole, whether
// or not the response declares its length; one byte more is an error,
// not a body cut to the limit.
func TestReadBodyLimit(t *testing.T) {
	const limit = 16
	for n := limit - 1; n <= limit+2; n++ {
		body := bytes.Repeat([]byte{'x'}, n)
		for _, declared := range []int64{-1, int64(n)} {
			resp := &http.Response{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: declared}
			got, err := ReadBody(resp, limit)
			if n <= limit {
				if err != nil || !bytes.Equal(got, body) {
					t.Errorf("%d-byte body, length %d: got %d bytes, err %v; want it whole", n, declared, len(got), err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), "exceeds") {
				t.Errorf("%d-byte body, length %d: got %d bytes, err %v; want an over-limit error", n, declared, len(got), err)
			}
		}
	}
}
