package topocmp

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/metrics"
	"topocmp/internal/partition"
)

// kernelBenchRow is one line of BENCH_kernels.json, rewritten after every
// kernel benchmark so a partial -bench run still leaves a consistent file.
// These rows are the machine-readable form of the cut/flow kernel table in
// EXPERIMENTS.md.
type kernelBenchRow struct {
	Name         string  `json:"name"`
	SecondsPerOp float64 `json:"seconds_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

var kernelBench struct {
	sync.Mutex
	rows []kernelBenchRow
}

// benchKernel runs fn b.N times with alloc accounting and records the row.
// ReportAllocs puts allocs/op in the -bench output too, so cmd/benchdiff
// gates allocations as well as time.
func benchKernel(b *testing.B, fn func()) {
	b.Helper()
	b.ReportAllocs()
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
	row := kernelBenchRow{
		Name:         b.Name(),
		SecondsPerOp: b.Elapsed().Seconds() / n,
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:   float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
	kernelBench.Lock()
	defer kernelBench.Unlock()
	// The harness re-enters the function while calibrating b.N; keep only
	// the latest (largest-N) row per benchmark name.
	replaced := false
	for i := range kernelBench.rows {
		if kernelBench.rows[i].Name == row.Name {
			kernelBench.rows[i] = row
			replaced = true
			break
		}
	}
	if !replaced {
		kernelBench.rows = append(kernelBench.rows, row)
	}
	data, err := json.MarshalIndent(kernelBench.rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_kernels.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

func kernelCfg() ball.Config {
	return ball.Config{MaxSources: 4, Rand: rand.New(rand.NewSource(1))}
}

// BenchmarkKernelResilience is the headline kernel workload: full
// resilience curves, whose per-ball balanced bisections run on the
// engine's pooled workspaces. The 900-node mesh (the same shape as the
// package-level BenchmarkResilienceMesh) coarsens in a few levels; the
// PLRG's balls reach its hubs at radius two, and a hub ball coarsens by a
// few nodes per level, so that row is dominated by deep FM refinement.
func BenchmarkKernelResilience(b *testing.B) {
	b.Run("mesh", func(b *testing.B) {
		g := canonical.Mesh(30, 30)
		benchKernel(b, func() {
			metrics.ResilienceWith(ball.NewEngine(g, 1), kernelCfg(), partition.Options{}, 1)
		})
	})
	b.Run("plrg", func(b *testing.B) {
		g := plrg.MustGenerate(rand.New(rand.NewSource(12)), plrg.Params{N: 1200, Beta: 2.246})
		benchKernel(b, func() {
			cfg := kernelCfg()
			cfg.MaxBallSize = 1500
			metrics.ResilienceWith(ball.NewEngine(g, 1), cfg, partition.Options{}, 1)
		})
	})
}

// BenchmarkKernelCutSize isolates one balanced bisection: a throwaway
// solver per call versus a warm reused workspace.
func BenchmarkKernelCutSize(b *testing.B) {
	g := canonical.Mesh(30, 30)
	b.Run("fresh", func(b *testing.B) {
		benchKernel(b, func() {
			partition.NewWorkspace().CutSize(g, partition.Options{Rand: rand.New(rand.NewSource(1))})
		})
	})
	b.Run("workspace", func(b *testing.B) {
		ws := partition.NewWorkspace()
		ws.CutSize(g, partition.Options{Rand: rand.New(rand.NewSource(1))})
		benchKernel(b, func() {
			ws.CutSize(g, partition.Options{Rand: rand.New(rand.NewSource(1))})
		})
	})
}

// BenchmarkKernelSurfaceFlow times the surface-max-flow curve on a fresh
// engine with pooled per-worker Dinic solvers.
func BenchmarkKernelSurfaceFlow(b *testing.B) {
	g := canonical.Mesh(30, 30)
	b.Run("engine", func(b *testing.B) {
		benchKernel(b, func() {
			metrics.SurfaceMaxFlowCurveWith(ball.NewEngine(g, 1), kernelCfg(), 6, 1)
		})
	})
}
