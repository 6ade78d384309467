package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestServeRaceShort hammers one server with mixed concurrent traffic at
// P=4 — the tier-2 `go test -race ./internal/serve` target. It exercises
// every shared structure at once: the flights map (identical suite
// requests deduping), the shared engine's per-center claims (overlapping
// metric requests from distinct seeds), the weighted semaphore under
// suite/metric contention, and the observability plane serving mid-run.
func TestServeRaceShort(t *testing.T) {
	// MaxInFlight covers all 12 distinct keys at once — admission shedding
	// has its own deterministic test; this one wants maximum overlap.
	s := New(Options{Workers: 4, MaxInFlight: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, v any) (int, []byte) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		return resp.StatusCode, buf.Bytes()
	}

	var wg sync.WaitGroup
	// Four identical suite requests: exactly one run, three dedups.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := post("/v1/suite", SuiteRequest{
				Network: "Tree", Set: quickSet(), Suite: quickSuite(),
			})
			if code != http.StatusOK {
				t.Errorf("suite: status %d: %s", code, body)
			}
		}()
	}
	// Overlapping metric traffic on one shared engine.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			metric := "expansion"
			if i%2 == 1 {
				metric = "eccentricity"
			}
			code, body := post("/v1/metric", MetricRequest{
				Network: "Tree", Set: quickSet(), Metric: metric,
				Sources: 24, Seed: int64(1 + i/2),
			})
			if code != http.StatusOK {
				t.Errorf("metric %d: status %d: %s", i, code, body)
			}
		}(i)
	}
	// The debug plane races the computations on purpose.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, path := range []string{"/metrics", "/debug/progress", "/healthz"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	if got := s.reg.Counter("serve.suite_runs").Value(); got != 1 {
		t.Fatalf("suite_runs = %d, want 1", got)
	}
	if got := s.reg.Counter("serve.dedup_hits").Value(); got < 3 {
		t.Fatalf("dedup_hits = %d, want >= 3", got)
	}
}
