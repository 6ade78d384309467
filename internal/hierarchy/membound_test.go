package hierarchy

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/obs"
)

// membound is the child-process side of TestLinkValueMemoryBound: one cold
// LinkValues call, reporting the pair entries it emitted and the heap bytes
// it allocated.
func membound(t *testing.T, parallel int) {
	g := canonical.Mesh(30, 30)
	reg := obs.NewRegistry()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	LinkValues(g, Options{
		MaxSources:  192,
		Rand:        rand.New(rand.NewSource(1)),
		Parallelism: parallel,
		Metrics:     reg,
	})
	runtime.ReadMemStats(&after)
	fmt.Printf("membound entries=%d bytes=%d\n",
		reg.Counter("hierarchy.pair_entries").Value(), after.TotalAlloc-before.TotalAlloc)
}

// TestLinkValueMemoryBound bounds the entry store's footprint: a cold
// LinkValues call on the 30×30 Mesh — millions of pair entries on the
// scalar route — allocates at most 16 bytes per emitted entry plus a fixed
// slack, at one worker and at two. Each width runs in a fresh process,
// since the chunk free list keeps its chunks across calls.
func TestLinkValueMemoryBound(t *testing.T) {
	if p := os.Getenv("TOPOCMP_MEMBOUND_CHILD"); p != "" {
		parallel, err := strconv.Atoi(p)
		if err != nil {
			t.Fatal(err)
		}
		membound(t, parallel)
		return
	}
	const slack = 8 << 20
	for _, parallel := range []int{1, 2} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestLinkValueMemoryBound$", "-test.count=1")
		cmd.Env = append(os.Environ(), "TOPOCMP_MEMBOUND_CHILD="+strconv.Itoa(parallel))
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("P=%d: child failed: %v\n%s", parallel, err, out)
		}
		var entries, bytes int64
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "membound ") {
				fmt.Sscanf(line, "membound entries=%d bytes=%d", &entries, &bytes)
			}
		}
		if entries == 0 {
			t.Fatalf("P=%d: no report from child:\n%s", parallel, out)
		}
		limit := 16*entries + slack
		t.Logf("P=%d: %d entries, %d bytes allocated (%.1f B/entry), limit %d",
			parallel, entries, bytes, float64(bytes)/float64(entries), limit)
		if bytes > limit {
			t.Errorf("P=%d: allocated %d bytes for %d entries, want <= 16 B/entry + %d",
				parallel, bytes, entries, slack)
		}
	}
}

// TestBucketShift pins the store's bucket sizing: 32 edges per bucket on
// the paper's graphs, fewer than 1024 buckets on big ones, and room for
// the sample index beside the offset.
func TestBucketShift(t *testing.T) {
	cases := []struct{ edges, samples, want int }{
		{1740, 192, 5},        // 30×30 Mesh: 55 buckets
		{4524, 2832, 5},       // RL core, full enumeration
		{1 << 20, 384, 11},    // a million edges: 512 buckets
		{1 << 20, 1 << 24, 7}, // 25-bit sample index leaves 7 offset bits
	}
	for _, c := range cases {
		if got := bucketShift(c.edges, c.samples); got != uint32(c.want) {
			t.Errorf("bucketShift(%d, %d) = %d, want %d", c.edges, c.samples, got, c.want)
		}
	}
}
