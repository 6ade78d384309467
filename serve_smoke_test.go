package topocmp

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServeSmoke is the verify.sh daemon gate (run with
// TOPOCMP_SERVE_SMOKE=1): build the real topocmpd binary, start it on a
// kernel-chosen port, and assert the serving layer end to end — a suite
// query answers, a duplicate fired while the first is in flight dedups
// against it (serve_dedup_hits_total moves), and /metrics plus
// /debug/progress serve mid-run. The daemon is then killed; byte-identity
// and concurrent metric sharing have their own in-process tests
// (internal/serve).
func TestServeSmoke(t *testing.T) {
	if os.Getenv("TOPOCMP_SERVE_SMOKE") == "" {
		t.Skip("set TOPOCMP_SERVE_SMOKE=1 to run the topocmpd serve smoke")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "topocmpd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/topocmpd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/topocmpd: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-j", "2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill() //nolint:errcheck // best-effort teardown
		cmd.Wait()         //nolint:errcheck // exit status is the kill
	}()

	// The daemon prints its bound address before accepting traffic.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "topocmpd listening on http://") {
				addrCh <- strings.Fields(strings.TrimPrefix(line, "topocmpd listening on "))[0]
				break
			}
		}
		close(addrCh)
		io.Copy(io.Discard, stdout) //nolint:errcheck // keep the pipe drained
	}()
	var base string
	select {
	case a, ok := <-addrCh:
		if !ok || a == "" {
			t.Fatal("topocmpd exited without printing its address")
		}
		base = a
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the topocmpd address")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// A Random-network suite at modest options runs long enough (seconds)
	// that the duplicate fired shortly after demonstrably overlaps it, and
	// that the mid-run probes sample a live computation.
	req := `{"Network":"Random","Set":{"Seed":3,"Scale":0.12},` +
		`"Suite":{"Sources":8,"MaxBallSize":800,"EigenRank":12,"LinkSources":64,"Seed":5}}`
	post := func() (int, http.Header, []byte) {
		resp, err := http.Post(base+"/v1/suite", "application/json", strings.NewReader(req))
		if err != nil {
			t.Errorf("POST /v1/suite: %v", err)
			return 0, nil, nil
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, body
	}

	type result struct {
		code   int
		source string
		body   []byte
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 1 {
				time.Sleep(200 * time.Millisecond) // land inside the first run
			}
			code, hdr, body := post()
			results[i] = result{code, hdr.Get("X-Topocmp-Source"), body}
		}(i)
	}

	// Probe the observability plane while the suite computes.
	var sawMetrics, sawProgress bool
	for i := 0; i < 40 && !(sawMetrics && sawProgress); i++ {
		if code, body := get("/metrics"); code == http.StatusOK &&
			strings.Contains(body, "serve_requests_total") {
			sawMetrics = true
		}
		if code, body := get("/debug/progress"); code == http.StatusOK &&
			strings.Contains(body, "stages") {
			sawProgress = true
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !sawMetrics {
		t.Error("/metrics never served serve_* counters mid-run")
	}
	if !sawProgress {
		t.Error("/debug/progress never answered mid-run")
	}

	wg.Wait()
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.code, r.body)
		}
	}
	if !bytes.Equal(results[0].body, results[1].body) {
		t.Error("duplicate request returned different bytes")
	}
	if !(results[0].source == "dedup" || results[1].source == "dedup") {
		t.Errorf("no request served via dedup (sources %q, %q)", results[0].source, results[1].source)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "serve_dedup_hits_total 1") ||
		!strings.Contains(body, "serve_suite_runs_total 1") {
		t.Errorf("/metrics after dedup = %d, want serve_dedup_hits_total 1 and "+
			"serve_suite_runs_total 1:\n%s", code, grepServe(body))
	}
}

// grepServe trims a Prometheus exposition to its serve_* lines for
// readable failure output.
func grepServe(body string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, "serve_") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
