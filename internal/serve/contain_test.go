package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// freeTokens reads how many of the server's worker tokens are free.
func freeTokens(s *Server) int {
	s.tokens.mu.Lock()
	defer s.tokens.mu.Unlock()
	return s.tokens.avail
}

// TestServeContainsComputePanic: a computation that panics while serveKeyed
// holds its worker tokens answers 500, counts serve.panics, frees its
// admission slot and tokens, and is evicted, so a retry of the same key
// computes; the daemon keeps answering /healthz.
func TestServeContainsComputePanic(t *testing.T) {
	s := New(Options{Workers: 2, MaxInFlight: 1})
	w := httptest.NewRecorder()
	s.serveKeyed(w, context.Background(), "k1", "x", noCache,
		func(_ context.Context, width int) (any, error) {
			if free := freeTokens(s); free != 2-width {
				t.Errorf("during compute: %d tokens free, want %d", free, 2-width)
			}
			var nodes []int32
			return nodes[3], nil // index out of range
		})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking compute: status %d, want 500 (%s)", w.Code, w.Body.String())
	}
	if got := s.reg.Counter("serve.panics").Value(); got != 1 {
		t.Fatalf("serve.panics = %d, want 1", got)
	}
	s.mu.Lock()
	_, present := s.flights["k1"]
	inflight := s.inflight
	s.mu.Unlock()
	if present || inflight != 0 {
		t.Fatalf("after panic: flight present %t, inflight %d; want false, 0", present, inflight)
	}
	if free := freeTokens(s); free != 2 {
		t.Fatalf("after panic: %d worker tokens free, want 2", free)
	}

	retry := httptest.NewRecorder()
	s.serveKeyed(retry, context.Background(), "k1", "x", noCache,
		func(context.Context, int) (any, error) {
			return &metricEntry{Network: "retry"}, nil
		})
	if retry.Code != http.StatusOK || retry.Header().Get("X-Topocmp-Source") != "computed" {
		t.Fatalf("retry: status %d, source %q; want 200, computed",
			retry.Code, retry.Header().Get("X-Topocmp-Source"))
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after a contained panic: %d", resp.StatusCode)
	}
}

// TestServeRejectsOversizedBody: a body past the 1 MiB bound is refused
// with 413 once the bound is crossed, not read to its end.
func TestServeRejectsOversizedBody(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 1}).Handler())
	defer ts.Close()
	body := `{"Network":"` + strings.Repeat("x", 2<<20) + `"}`
	for _, path := range []string{"/v1/suite", "/v1/metric"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a 2 MiB body: status %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestServeRejectsHugeScale: a Scale past core.MaxScale is refused with 400
// on both endpoints, and no network is built.
func TestServeRejectsHugeScale(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, b := range []struct{ path, body string }{
		{"/v1/suite", `{"Network":"Tree","Set":{"Scale":1e12}}`},
		{"/v1/metric", `{"Network":"Tree","Metric":"expansion","Set":{"Scale":1e12}}`},
	} {
		code, _, out := postJSON(t, ts.URL+b.path, []byte(b.body))
		if code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", b.path, b.body, code, out)
		}
	}
	s.netMu.Lock()
	built := len(s.nets) + len(s.msets)
	s.netMu.Unlock()
	if built != 0 {
		t.Fatalf("%d networks built for rejected requests", built)
	}
}
