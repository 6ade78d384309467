package topocmp

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"

	"topocmp/internal/core"
	"topocmp/internal/serve"
)

// serveBenchRow is one line of BENCH_serve.json: throughput of the serving
// layer's two sharing mechanisms against their naive counterparts. One op
// is a burst of Requests concurrent HTTP requests; SpeedupVsNaive is filled
// on the optimized row once its naive twin has run, so the committed file
// carries the dedup and shared-engine wins explicitly. Rewritten after every
// benchmark so a partial -bench run still leaves a consistent file.
type serveBenchRow struct {
	Name           string  `json:"name"`
	Mode           string  `json:"mode"`
	Requests       int     `json:"requests_per_op"`
	SecondsPerOp   float64 `json:"seconds_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
	SpeedupVsNaive float64 `json:"speedup_vs_naive,omitempty"`
}

var serveBench struct {
	sync.Mutex
	rows []serveBenchRow
}

// serveBenchPairs maps each optimized sub-benchmark to the naive twin its
// speedup is computed against.
var serveBenchPairs = map[string]string{
	"BenchmarkServe/dedup8":  "BenchmarkServe/naive8",
	"BenchmarkServe/shared8": "BenchmarkServe/solo8",
}

// benchServe runs fn (one burst of requests concurrent requests) b.N times
// with alloc accounting and records the row. fn may stop/restart the timer
// around per-iteration server setup; the alloc figures deliberately include
// that setup, identically on both sides of each pair.
func benchServe(b *testing.B, mode string, requests int, fn func()) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N)
	row := serveBenchRow{
		Name:         b.Name(),
		Mode:         mode,
		Requests:     requests,
		SecondsPerOp: b.Elapsed().Seconds() / n,
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:   float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
	serveBench.Lock()
	defer serveBench.Unlock()
	replaced := false
	for i := range serveBench.rows {
		if serveBench.rows[i].Name == row.Name {
			serveBench.rows[i] = row
			replaced = true
			break
		}
	}
	if !replaced {
		serveBench.rows = append(serveBench.rows, row)
	}
	// Fill the speedup column wherever both sides of a pair are present.
	bySec := map[string]float64{}
	for _, r := range serveBench.rows {
		bySec[r.Name] = r.SecondsPerOp
	}
	for i := range serveBench.rows {
		naive, ok := serveBenchPairs[serveBench.rows[i].Name]
		if !ok {
			continue
		}
		if ns, ok := bySec[naive]; ok && serveBench.rows[i].SecondsPerOp > 0 {
			serveBench.rows[i].SpeedupVsNaive = ns / serveBench.rows[i].SecondsPerOp
		}
	}
	data, err := json.MarshalIndent(serveBench.rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serve.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// serveBenchSet is the graph under test for every serve benchmark: the
// scaled-down Random network (~1000 nodes), heavy enough that suite and
// sweep compute dominates HTTP plumbing.
func serveBenchSet() core.PaperSetOptions {
	return core.PaperSetOptions{Seed: 3, Scale: 0.2}
}

// serveBenchSuiteBody marshals the identical suite request the dedup
// benchmarks replay; seed varies per iteration so every burst is a cold
// cache key (the dedup under test is in-flight sharing, not memo serving).
func serveBenchSuiteBody(b *testing.B, seed int64) []byte {
	body, err := json.Marshal(serve.SuiteRequest{
		Network: "Random",
		Set:     serveBenchSet(),
		Suite: core.SuiteOptions{
			Sources: 8, MaxBallSize: 600, EigenRank: 8, LinkSources: 32,
			SampleBudget: 8, SkipHierarchy: true, Seed: seed,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func serveBenchMetricBody(b *testing.B, seed int64) []byte {
	body, err := json.Marshal(serve.MetricRequest{
		Network: "Random", Set: serveBenchSet(),
		Metric: "expansion", Sources: 512, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// fireBurst posts every body concurrently and drains the responses; the
// burst is one benchmark op.
func fireBurst(b *testing.B, url string, bodies [][]byte) {
	var wg sync.WaitGroup
	for _, body := range bodies {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
		}(body)
	}
	wg.Wait()
}

// postOnce is the setup-path request helper (warming, equality checks).
func postOnce(b *testing.B, url string, body []byte) []byte {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	return out
}

// BenchmarkServe measures the daemon's two sharing layers end to end over
// real HTTP, writing BENCH_serve.json:
//
//   - dedup8 vs naive8: 8 concurrent identical suite requests per op.
//     With singleflight the burst executes one suite; with dedup disabled
//     every request computes, serialized by the worker semaphore — the
//     dedup row's speedup_vs_naive is the acceptance figure (>= 5x).
//   - shared8 vs solo8: 8 concurrent expansion requests from distinct
//     seeds per op. On one server the burst runs on one engine, whose
//     per-center claims compute each center of the overlapping sets once;
//     the naive side executes each request in isolation (8 separate
//     servers, one engine each), which is what per-request execution
//     without a serving layer does: 8 full sweeps over overlapping center
//     sets. Servers are rebuilt per op so every engine starts cold; that
//     setup runs outside the timer.
func BenchmarkServe(b *testing.B) {
	// In-flight dedup: one long-lived server per mode, fresh suite seed per
	// op so every burst recomputes. MaxInFlight must cover the naive burst.
	seed := int64(1)
	for _, m := range []struct {
		name    string
		disable bool
	}{{"dedup8", false}, {"naive8", true}} {
		b.Run(m.name, func(b *testing.B) {
			s := serve.New(serve.Options{MaxInFlight: 16, DisableDedup: m.disable})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			// Warm the network memo so the first op doesn't pay graph
			// construction (both modes, identically).
			postOnce(b, ts.URL+"/v1/suite", serveBenchSuiteBody(b, 1<<40))
			mode := "singleflight"
			if m.disable {
				mode = "naive"
			}
			benchServe(b, mode, 8, func() {
				seed++
				body := serveBenchSuiteBody(b, seed)
				bodies := make([][]byte, 8)
				for i := range bodies {
					bodies[i] = body
				}
				fireBurst(b, ts.URL+"/v1/suite", bodies)
			})
		})
	}

	// Shared engine: the per-server engine caches cumulative profiles for
	// the server's lifetime, so each op gets fresh servers (setup outside
	// the timer) and replays the same 8-seed burst cold.
	metricBodies := make([][]byte, 8)
	for i := range metricBodies {
		metricBodies[i] = serveBenchMetricBody(b, int64(i+1))
	}
	newMetricServer := func() (*httptest.Server, func()) {
		s := serve.New(serve.Options{MaxInFlight: 16})
		ts := httptest.NewServer(s.Handler())
		// Build the network and engine before the timer restarts; a
		// one-source probe leaves the profile cache effectively cold.
		postOnce(b, ts.URL+"/v1/metric", serveBenchMetricBody(b, 1<<40))
		return ts, ts.Close
	}
	// Shared-engine responses must be byte-identical to isolated solo ones.
	{
		cts, cdone := newMetricServer()
		for i, body := range metricBodies {
			sts, sdone := newMetricServer()
			got := postOnce(b, cts.URL+"/v1/metric", body)
			want := postOnce(b, sts.URL+"/v1/metric", body)
			sdone()
			if !bytes.Equal(got, want) {
				b.Fatalf("shared-engine body %d differs from solo body", i)
			}
		}
		cdone()
	}
	b.Run("shared8", func(b *testing.B) {
		benchServe(b, "shared", 8, func() {
			b.StopTimer()
			ts, done := newMetricServer()
			b.StartTimer()
			fireBurst(b, ts.URL+"/v1/metric", metricBodies)
			b.StopTimer()
			done()
			b.StartTimer()
		})
	})
	b.Run("solo8", func(b *testing.B) {
		benchServe(b, "isolated", 8, func() {
			b.StopTimer()
			servers := make([]*httptest.Server, len(metricBodies))
			closers := make([]func(), len(metricBodies))
			for i := range servers {
				servers[i], closers[i] = newMetricServer()
			}
			b.StartTimer()
			var wg sync.WaitGroup
			for i, body := range metricBodies {
				wg.Add(1)
				go func(url string, body []byte) {
					defer wg.Done()
					fireBurst(b, url, [][]byte{body})
				}(servers[i].URL+"/v1/metric", body)
			}
			wg.Wait()
			b.StopTimer()
			for _, c := range closers {
				c()
			}
			b.StartTimer()
		})
	})
}
