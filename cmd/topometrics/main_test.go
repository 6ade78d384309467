package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"topocmp/internal/gen/plrg"
)

// TestAllMetricsDigest pins the full text report of every metric on a fixed
// 400-node PLRG edge list: the per-metric seeds (eccentricity's fixed
// stream included) and the shared engine must leave every value unchanged.
func TestAllMetricsDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plrg400.edges")
	g := plrg.MustGenerate(rand.New(rand.NewSource(7)), plrg.Params{N: 400, Beta: 2.246})
	if err := g.WriteEdgeListFile(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-metric", "all", "-ascii=false", path}, &out); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	const want = "a0b6570bd205ff82d7cfb220cc0b89d5881036078285e321e564a61d6a267956"
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want {
		t.Fatalf("report digest %s, want %s\n%s", got, want, out.String())
	}
}

func TestUnknownMetric(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.edges")
	g := plrg.MustGenerate(rand.New(rand.NewSource(7)), plrg.Params{N: 100, Beta: 2.246})
	if err := g.WriteEdgeListFile(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-metric", "nope", path}, &out); code != 1 {
		t.Fatalf("unknown metric: exit code %d, want 1", code)
	}
}
