// Package topocmp's root benchmarks regenerate every table and figure of
// the paper (see DESIGN.md's experiment index). Each BenchmarkTableN /
// BenchmarkFigureN prints the rows or series the paper reports (once) and
// times the artifact's assembly against a shared, lazily warmed experiment
// runner; the BenchmarkAblation* family measures the design choices called
// out in DESIGN.md on live workloads.
//
// Run with:
//
//	go test -bench=. -benchmem
package topocmp

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/bgp"
	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/flow"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/graph"
	"topocmp/internal/hierarchy"
	"topocmp/internal/metrics"
	"topocmp/internal/multicast"
	"topocmp/internal/partition"
	"topocmp/internal/policy"
	"topocmp/internal/stats"
)

var (
	runnerOnce sync.Once
	runner     *experiments.Runner
	printOnce  sync.Map
)

// benchRunner returns the shared runner at bench scale; the expensive suite
// computations are memoized inside it, so each figure bench warms exactly
// the networks it needs.
func benchRunner() *experiments.Runner {
	runnerOnce.Do(func() {
		cfg := experiments.QuickConfig(1)
		cfg.Set.Scale = 0.1
		cfg.Suite.Sources = 10
		cfg.Suite.MaxBallSize = 1200
		cfg.Suite.LinkSources = 320
		runner = experiments.NewRunner(cfg)
	})
	return runner
}

// printHeader emits the artifact's rows exactly once across -bench runs.
func printHeader(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

func warmSuites(names ...string) {
	r := benchRunner()
	for _, n := range names {
		r.Suite(n)
	}
}

func BenchmarkTable1Inventory(b *testing.B) {
	r := benchRunner()
	r.Networks()
	b.ResetTimer()
	var rows []core.Description
	for i := 0; i < b.N; i++ {
		rows = r.Table1()
	}
	printHeader("table1", func() {
		fmt.Println("\nTable 1: topology inventory")
		for _, d := range rows {
			fmt.Printf("  %-9s %-9s %6d nodes  avg degree %.2f\n",
				d.Category, d.Name, d.Nodes, d.AvgDegree)
		}
	})
}

func benchFigure2(b *testing.B, group string, names []string) {
	warmSuites(names...)
	r := benchRunner()
	b.ResetTimer()
	var p experiments.Figure2Panel
	for i := 0; i < b.N; i++ {
		p = r.Figure2(group, names)
	}
	printHeader("fig2-"+group, func() {
		fmt.Printf("\nFigure 2 (%s): series lengths — ", group)
		for i := range p.Expansion {
			fmt.Printf("%s E=%d ", p.Expansion[i].Name, p.Expansion[i].Len())
		}
		fmt.Println()
	})
}

func BenchmarkFigure2ExpansionCanonical(b *testing.B) {
	benchFigure2(b, "canonical", experiments.CanonicalNames)
}

func BenchmarkFigure2ExpansionMeasured(b *testing.B) {
	benchFigure2(b, "measured", experiments.MeasuredNames)
}

func BenchmarkFigure2ExpansionGenerated(b *testing.B) {
	benchFigure2(b, "generated", experiments.GeneratedNames)
}

// BenchmarkFigure2ResilienceRaw times the resilience computation itself on
// the PLRG (the suite memoizes it for the panel benches above).
func BenchmarkFigure2ResilienceRaw(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.ResilienceWith(ball.NewEngine(g, 1), ball.Config{MaxSources: 6, MaxBallSize: 800,
			Rand: rand.New(rand.NewSource(int64(i)))}, partition.Options{}, 1)
	}
}

// BenchmarkFigure2DistortionRaw times the distortion computation.
func BenchmarkFigure2DistortionRaw(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.DistortionWith(ball.NewEngine(g, 1), ball.Config{MaxSources: 6, MaxBallSize: 800,
			Rand: rand.New(rand.NewSource(int64(i)))}, 3)
	}
}

var benchGraphOnce sync.Once
var benchG *graph.Graph

func benchGraph() *graph.Graph {
	benchGraphOnce.Do(func() {
		benchG = plrg.MustGenerate(rand.New(rand.NewSource(3)), plrg.Params{N: 2000, Beta: 2.246})
	})
	return benchG
}

func BenchmarkTable2CanonicalSignatures(b *testing.B) {
	warmSuites("Mesh", "Random", "Tree", "Complete", "Linear")
	r := benchRunner()
	b.ResetTimer()
	var rows []core.Row
	for i := 0; i < b.N; i++ {
		rows = r.Table2()
	}
	printHeader("table2", func() {
		fmt.Println("\nTable 2: canonical signatures")
		core.WriteTable(os.Stdout, rows)
	})
}

func BenchmarkTable3Classification(b *testing.B) {
	warmSuites(experiments.AllTableNames...)
	r := benchRunner()
	b.ResetTimer()
	var rows []core.Row
	for i := 0; i < b.N; i++ {
		rows = r.Table3()
	}
	printHeader("table3", func() {
		fmt.Println("\nTable 3 (§4.4): classification")
		core.WriteTable(os.Stdout, rows)
	})
}

func BenchmarkFigure3LinkValues(b *testing.B) {
	names := []string{"Tree", "Mesh", "RL", "AS", "TS", "Tiers", "Waxman", "PLRG"}
	warmSuites(names...)
	r := benchRunner()
	b.ResetTimer()
	var series []stats.Series
	for i := 0; i < b.N; i++ {
		series = r.Figure3(names)
	}
	printHeader("fig3", func() {
		fmt.Println("\nFigures 3/4: top normalized link values")
		for _, s := range series {
			fmt.Printf("  %-12s top=%.4f\n", s.Name, s.Points[0].Y)
		}
	})
}

func BenchmarkTable4HierarchyGroups(b *testing.B) {
	r := benchRunner()
	r.Table4() // warm
	b.ResetTimer()
	var rows []experiments.HierarchyRow
	for i := 0; i < b.N; i++ {
		rows = r.Table4()
	}
	printHeader("table4", func() {
		fmt.Println("\nTable 4 (§5.1): hierarchy groups")
		for _, row := range rows {
			fmt.Printf("  %-8s %s (paper: %s)\n", row.Name, row.Class,
				core.ExpectedHierarchy[row.Name])
		}
	})
}

func BenchmarkFigure5Correlation(b *testing.B) {
	r := benchRunner()
	r.Figure5() // warm
	b.ResetTimer()
	var rows []experiments.Figure5Row
	for i := 0; i < b.N; i++ {
		rows = r.Figure5()
	}
	printHeader("fig5", func() {
		fmt.Println("\nFigure 5: link value / min degree correlation")
		for _, row := range rows {
			fmt.Printf("  %-12s %.3f\n", row.Name, row.Correlation)
		}
	})
}

func BenchmarkFigure6DegreeDistributions(b *testing.B) {
	r := benchRunner()
	r.Networks()
	names := append(append([]string{}, experiments.CanonicalNames...),
		"AS", "RL", "PLRG", "TS", "Tiers", "Waxman")
	b.ResetTimer()
	var series []stats.Series
	for i := 0; i < b.N; i++ {
		series = r.Figure6(names)
	}
	printHeader("fig6", func() {
		fmt.Println("\nFigure 6: degree CCDF tail exponents (log-log slope)")
		for _, s := range series {
			fit := stats.LogLogFit(s.Points)
			fmt.Printf("  %-8s slope=%.2f R2=%.2f\n", s.Name, fit.Slope, fit.R2)
		}
	})
}

func BenchmarkFigure7Eigenvalues(b *testing.B) {
	names := []string{"Tree", "Mesh", "Random", "AS", "PLRG", "TS", "Tiers", "Waxman"}
	warmSuites(names...)
	r := benchRunner()
	b.ResetTimer()
	var series []stats.Series
	for i := 0; i < b.N; i++ {
		series = r.Figure7Eigen(names)
	}
	printHeader("fig7e", func() {
		fmt.Println("\nFigure 7(a-c): top eigenvalues")
		for _, s := range series {
			if s.Len() > 0 {
				fmt.Printf("  %-8s lambda1=%.2f ranks=%d\n", s.Name, s.Points[0].Y, s.Len())
			}
		}
	})
}

func BenchmarkFigure7Eccentricity(b *testing.B) {
	names := []string{"Tree", "Mesh", "Random", "RL", "AS", "PLRG", "TS", "Tiers", "Waxman"}
	warmSuites(names...)
	r := benchRunner()
	b.ResetTimer()
	var series []stats.Series
	for i := 0; i < b.N; i++ {
		series = r.Figure7Ecc(names)
	}
	printHeader("fig7d", func() {
		fmt.Println("\nFigure 7(d-f): eccentricity distributions (bins)")
		for _, s := range series {
			fmt.Printf("  %-8s bins=%d\n", s.Name, s.Len())
		}
	})
}

func BenchmarkFigure8VertexCover(b *testing.B) {
	names := []string{"Tree", "Mesh", "Random", "RL", "AS", "PLRG", "TS", "Tiers", "Waxman"}
	warmSuites(names...)
	r := benchRunner()
	b.ResetTimer()
	var series []stats.Series
	for i := 0; i < b.N; i++ {
		series = r.Figure8Cover(names)
	}
	printHeader("fig8c", func() {
		fmt.Println("\nFigure 8(a-c): vertex cover at largest measured ball")
		for _, s := range series {
			if s.Len() > 0 {
				last := s.Points[s.Len()-1]
				fmt.Printf("  %-8s cover(%0.f)=%.0f\n", s.Name, last.X, last.Y)
			}
		}
	})
}

func BenchmarkFigure8Biconnectivity(b *testing.B) {
	names := []string{"Tree", "Mesh", "Random", "RL", "AS", "PLRG", "TS", "Tiers", "Waxman"}
	warmSuites(names...)
	r := benchRunner()
	b.ResetTimer()
	var series []stats.Series
	for i := 0; i < b.N; i++ {
		series = r.Figure8Bicon(names)
	}
	printHeader("fig8b", func() {
		fmt.Println("\nFigure 8(d-f): biconnected components at largest ball")
		for _, s := range series {
			if s.Len() > 0 {
				last := s.Points[s.Len()-1]
				fmt.Printf("  %-8s bicomp(%0.f)=%.0f\n", s.Name, last.X, last.Y)
			}
		}
	})
}

func BenchmarkFigure9Attack(b *testing.B) {
	names := []string{"Tree", "Mesh", "Random", "RL", "AS", "PLRG", "TS", "Tiers", "Waxman"}
	warmSuites(names...)
	r := benchRunner()
	b.ResetTimer()
	var att []stats.Series
	for i := 0; i < b.N; i++ {
		att, _ = r.Figure9(names)
	}
	printHeader("fig9a", func() {
		fmt.Println("\nFigure 9(a-c): attack tolerance (APL at f=0 and f=0.05)")
		for _, s := range att {
			fmt.Printf("  %-12s %.2f -> %.2f\n", s.Name, s.YAt(0), s.YAt(0.05))
		}
	})
}

func BenchmarkFigure9Error(b *testing.B) {
	names := []string{"Tree", "Mesh", "Random", "RL", "AS", "PLRG", "TS", "Tiers", "Waxman"}
	warmSuites(names...)
	r := benchRunner()
	b.ResetTimer()
	var errTol []stats.Series
	for i := 0; i < b.N; i++ {
		_, errTol = r.Figure9(names)
	}
	printHeader("fig9e", func() {
		fmt.Println("\nFigure 9(d-f): error tolerance (APL at f=0 and f=0.05)")
		for _, s := range errTol {
			fmt.Printf("  %-12s %.2f -> %.2f\n", s.Name, s.YAt(0), s.YAt(0.05))
		}
	})
}

func BenchmarkFigure10Clustering(b *testing.B) {
	names := []string{"Tree", "Mesh", "Random", "RL", "AS", "PLRG", "TS", "Tiers", "Waxman"}
	warmSuites(names...)
	r := benchRunner()
	b.ResetTimer()
	var series []stats.Series
	for i := 0; i < b.N; i++ {
		series = r.Figure10(names)
	}
	printHeader("fig10", func() {
		fmt.Println("\nFigure 10: whole-graph clustering coefficients")
		for _, name := range names {
			fmt.Printf("  %-8s C=%.3f\n", name, r.Suite(name).WholeGraphClustering)
		}
		_ = series
	})
}

func BenchmarkFigure11ParameterSpace(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	var rows []experiments.Figure11Row
	for i := 0; i < b.N; i++ {
		rows = r.Figure11()
	}
	printHeader("fig11", func() {
		fmt.Println("\nFigure 11 (Appendix C): parameter exploration")
		for _, row := range rows {
			fmt.Printf("  %-7s %-24s %6d nodes  deg=%.2f  %s\n",
				row.Generator, row.Params, row.Nodes, row.AvgDegree, row.Signature)
		}
	})
}

func BenchmarkFigure12DegreeBasedVariants(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	var p experiments.VariantPanel
	for i := 0; i < b.N; i++ {
		p = r.Figure12()
	}
	printHeader("fig12", func() {
		fmt.Println("\nFigure 12 (Appendix D.1): degree-based variants")
		for i := range p.Expansion {
			sig := core.Signature{
				Expansion:  core.ClassifyExpansion(p.Expansion[i]),
				Resilience: core.ClassifyResilience(p.Resilience[i]),
				Distortion: core.ClassifyDistortion(p.Distortion[i]),
			}
			fmt.Printf("  %-6s %s (want HHL)\n", p.Expansion[i].Name, sig)
		}
	})
}

func BenchmarkFigure13Reconnection(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	var p experiments.VariantPanel
	for i := 0; i < b.N; i++ {
		p = r.Figure13()
	}
	printHeader("fig13", func() {
		fmt.Println("\nFigure 13 (Appendix D.1): PLRG reconnection")
		for i := range p.Expansion {
			fmt.Printf("  %-15s E=%s D=%s\n", p.Expansion[i].Name,
				core.ClassifyExpansion(p.Expansion[i]),
				core.ClassifyDistortion(p.Distortion[i]))
		}
	})
}

func BenchmarkFigure14VariantHierarchy(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	var series []stats.Series
	for i := 0; i < b.N; i++ {
		series = r.Figure14()
	}
	printHeader("fig14", func() {
		fmt.Println("\nFigure 14 (Appendix D.2): variant link values")
		for _, s := range series {
			fmt.Printf("  %-6s top=%.4f\n", s.Name, s.Points[0].Y)
		}
	})
}

// --- Ball-engine benches (the parallel ball-growing engine of DESIGN.md) ---

// BenchmarkRunSuite times the full metric suite on the bench PLRG through
// the shared ball engine, sequentially and at NumCPU parallelism.
func BenchmarkRunSuite(b *testing.B) {
	g := benchGraph()
	n := &core.Network{Name: "PLRG", Category: core.Generated, Graph: g}
	for _, c := range []struct {
		name string
		par  int
	}{{"sequential", 1}, {"numcpu", 0}} {
		b.Run(c.name, func(b *testing.B) {
			opts := core.SuiteOptions{Sources: 10, MaxBallSize: 1200,
				LinkSources: 256, Seed: 1, Parallelism: c.par}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.RunSuite(n, opts)
			}
		})
	}
}

// BenchmarkBallEngine times one full ball-growing pass (grow balls around
// sampled centers, build each ball's induced subgraph) through a cold
// engine, plus the engine's steady state where the profile and subgraph
// caches are warm.
func BenchmarkBallEngine(b *testing.B) {
	g := benchGraph()
	cfg := func() ball.Config {
		return ball.Config{MaxSources: 10, MaxBallSize: 1200,
			Rand: rand.New(rand.NewSource(1))}
	}
	count := func(sub *graph.Graph, _ *rand.Rand) (float64, bool) {
		return float64(sub.NumNodes()), true
	}
	b.Run("engine-cold", func(b *testing.B) {
		b.ReportAllocs()
		balls := 0
		for i := 0; i < b.N; i++ {
			e := ball.NewEngine(g, 1)
			pts := e.BallPoints(cfg(), 1, count)
			balls = len(pts)
		}
		b.ReportMetric(float64(balls), "balls")
	})
	b.Run("engine-warm", func(b *testing.B) {
		e := ball.NewEngine(g, 1)
		e.BallPoints(cfg(), 1, count) // warm the caches
		b.ReportAllocs()
		b.ResetTimer()
		balls := 0
		for i := 0; i < b.N; i++ {
			pts := e.BallPoints(cfg(), 1, count)
			balls = len(pts)
		}
		b.ReportMetric(float64(balls), "balls")
	})
}

// --- Ablation benches (DESIGN.md design choices) ---

func BenchmarkAblationDistortionRoots(b *testing.B) {
	g := benchGraph()
	for _, roots := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("roots=%d", roots), func(b *testing.B) {
			var last stats.Series
			for i := 0; i < b.N; i++ {
				last = metrics.DistortionWith(ball.NewEngine(g, 1), ball.Config{MaxSources: 4, MaxBallSize: 600,
					Rand: rand.New(rand.NewSource(1))}, roots)
			}
			if last.Len() > 0 {
				b.ReportMetric(last.Points[last.Len()-1].Y, "distortion")
			}
		})
	}
}

func BenchmarkAblationPartitioner(b *testing.B) {
	g := benchGraph()
	sub := g.Subgraph(g.Ball(0, 4))
	cases := []struct {
		name string
		opts partition.Options
	}{
		{"fm-multilevel", partition.Options{}},
		{"no-refinement", partition.Options{Refinements: -1, Seeds: 1}},
		{"many-seeds", partition.Options{Seeds: 12}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cut := 0
			for i := 0; i < b.N; i++ {
				o := c.opts
				o.Rand = rand.New(rand.NewSource(int64(i)))
				cut = partition.NewWorkspace().CutSize(sub, o)
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

func BenchmarkAblationBallSampling(b *testing.B) {
	g := benchGraph()
	for _, sources := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("sources=%d", sources), func(b *testing.B) {
			var e stats.Series
			for i := 0; i < b.N; i++ {
				e = metrics.ExpansionWith(ball.NewEngine(g, 1), ball.Config{MaxSources: sources,
					Rand: rand.New(rand.NewSource(1))})
			}
			b.ReportMetric(e.YAt(4), "E(4)")
		})
	}
}

func BenchmarkAblationLinkValueSampling(b *testing.B) {
	g := benchGraph()
	for _, q := range []int{128, 320, 512} {
		b.Run(fmt.Sprintf("Q=%d", q), func(b *testing.B) {
			var top float64
			for i := 0; i < b.N; i++ {
				res := hierarchy.LinkValues(g, hierarchy.Options{
					MaxSources: q, Rand: rand.New(rand.NewSource(1))})
				top = res.RankDistribution().Points[0].Y
			}
			b.ReportMetric(top, "topvalue")
		})
	}
}

func BenchmarkAblationConnectivity(b *testing.B) {
	for _, c := range []plrg.Connectivity{
		plrg.CloneMatching, plrg.UniformRandom,
		plrg.ProportionalUnsatisfied, plrg.Deterministic,
	} {
		b.Run(c.String(), func(b *testing.B) {
			var g *graph.Graph
			for i := 0; i < b.N; i++ {
				g = plrg.MustGenerate(rand.New(rand.NewSource(int64(i))),
					plrg.Params{N: 3000, Beta: 2.246, Connect: c})
			}
			b.ReportMetric(float64(g.NumNodes()), "component")
		})
	}
}

// --- Primitive benches: the algorithms the figures run on ---

func BenchmarkPrimitiveDinicFlow(b *testing.B) {
	g := benchGraph()
	nw := flow.NewNetwork(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.MaxFlow(0, int32(1+i%(g.NumNodes()-1)))
	}
}

func BenchmarkPrimitiveMulticastTree(b *testing.B) {
	g := benchGraph()
	r := rand.New(rand.NewSource(5))
	receivers := make([]int32, 200)
	for i := range receivers {
		receivers[i] = int32(r.Intn(g.NumNodes()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multicast.TreeLinks(g, 0, receivers)
	}
}

func BenchmarkPrimitivePolicyBFS(b *testing.B) {
	r := benchRunner()
	as := r.Measured().TruthAS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.Annotated.Dist(int32(i % as.Graph.NumNodes()))
	}
}

func BenchmarkPrimitiveGaoInference(b *testing.B) {
	r := benchRunner()
	as := r.Measured().TruthAS
	vantages := bgp.PickVantages(as.Graph, 10, rand.New(rand.NewSource(6)))
	table := bgp.Collect(as.Annotated, vantages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.InferGao(as.Graph, table.Paths)
	}
}

func BenchmarkPrimitiveLinkValues(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hierarchy.LinkValues(g, hierarchy.Options{MaxSources: 256,
			Rand: rand.New(rand.NewSource(int64(i)))})
	}
}

func BenchmarkPrimitiveEigenSpectrum(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.EigenvalueSpectrum(g, 40)
	}
}

func BenchmarkNullModelRewiring(b *testing.B) {
	r := benchRunner()
	b.ResetTimer()
	var p experiments.VariantPanel
	for i := 0; i < b.N; i++ {
		p = r.RewiringPanel()
	}
	printHeader("nullmodel", func() {
		fmt.Println("\nNull model: AS vs degree-preserving rewiring")
		for i := range p.Expansion {
			sig := core.Signature{
				Expansion:  core.ClassifyExpansion(p.Expansion[i]),
				Resilience: core.ClassifyResilience(p.Resilience[i]),
				Distortion: core.ClassifyDistortion(p.Distortion[i]),
			}
			fmt.Printf("  %-12s %s\n", p.Expansion[i].Name, sig)
		}
	})
}
