// Command topometrics computes the paper's topology metrics on a graph read
// from an edge-list file (or stdin) and prints the curves, optionally as
// .dat files and ASCII plots.
//
// Usage:
//
//	topogen -type plrg -n 5000 -o g.edges
//	topometrics -metric expansion g.edges
//	topometrics -metric all -dat out/ g.edges
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/metrics"
	"topocmp/internal/partition"
	"topocmp/internal/plot"
	"topocmp/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, computes the requested metrics and writes the report to
// stdout; it returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("topometrics", flag.ContinueOnError)
	var (
		metric  = fs.String("metric", "all", "expansion, resilience, distortion, eigenvalues, eccentricity, cover, biconnectivity, attack, error, clustering, or all")
		sources = fs.Int("sources", 24, "sampled ball centers")
		maxBall = fs.Int("maxball", 3000, "per-ball size cap for expensive metrics")
		seed    = fs.Int64("seed", 1, "RNG seed")
		datDir  = fs.String("dat", "", "also write .dat files into this directory")
		ascii   = fs.Bool("ascii", true, "print ASCII previews")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	g, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "topometrics:", err)
		return 1
	}
	fmt.Fprintf(stdout, "graph: %d nodes, %d edges, avg degree %.2f, max degree %d\n",
		g.NumNodes(), g.NumEdges(), g.AvgDegree(), g.MaxDegree())

	// One sequential engine serves every ball metric; each metric keeps its
	// own center seed, so sharing the engine's caches changes no value.
	eng := ball.NewEngine(g, 1)
	cfg := func(off int64) ball.Config {
		return ball.Config{
			MaxSources:  *sources,
			MaxBallSize: *maxBall,
			Rand:        rand.New(rand.NewSource(*seed + off)),
		}
	}
	fractions := []float64{0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20}

	compute := map[string]func() stats.Series{
		"expansion": func() stats.Series {
			return metrics.ExpansionWith(eng, ball.Config{MaxSources: 4 * *sources,
				Rand: rand.New(rand.NewSource(*seed))})
		},
		"resilience": func() stats.Series {
			return metrics.ResilienceWith(eng, cfg(1), partition.Options{},
				rand.New(rand.NewSource(*seed+100)).Int63())
		},
		"distortion":  func() stats.Series { return metrics.DistortionWith(eng, cfg(2), 3) },
		"eigenvalues": func() stats.Series { return metrics.EigenvalueSpectrum(g, 40) },
		"eccentricity": func() stats.Series {
			return metrics.EccentricityDistributionWith(eng, 4**sources, 0.1, rand.New(rand.NewSource(11)))
		},
		"cover": func() stats.Series { return metrics.VertexCoverCurveWith(eng, cfg(3)) },
		"biconnectivity": func() stats.Series {
			return metrics.BiconnectivityCurveWith(eng, cfg(4))
		},
		"attack": func() stats.Series { return metrics.AttackTolerance(g, fractions, 2**sources) },
		"error": func() stats.Series {
			return metrics.ErrorTolerance(g, fractions, 2**sources,
				rand.New(rand.NewSource(*seed+200)))
		},
		"clustering": func() stats.Series { return metrics.ClusteringCurveWith(eng, cfg(5)) },
	}
	order := []string{"expansion", "resilience", "distortion", "eigenvalues",
		"eccentricity", "cover", "biconnectivity", "attack", "error", "clustering"}

	var names []string
	if *metric == "all" {
		names = order
	} else if _, ok := compute[*metric]; ok {
		names = []string{*metric}
	} else {
		fmt.Fprintf(os.Stderr, "topometrics: unknown metric %q\n", *metric)
		return 1
	}
	for _, name := range names {
		s := compute[name]()
		s.Name = name
		fmt.Fprintf(stdout, "\n%s (%d points):\n", name, s.Len())
		for _, p := range s.Points {
			fmt.Fprintf(stdout, "  %g\t%g\n", p.X, p.Y)
		}
		if *ascii && s.Len() > 1 {
			opts := plot.Options{Title: name, Height: 10}
			if name == "resilience" || name == "distortion" || name == "cover" || name == "biconnectivity" {
				opts.XScale = plot.Log
			}
			if name == "expansion" || name == "resilience" || name == "cover" || name == "biconnectivity" {
				opts.YScale = plot.Log
			}
			plot.ASCII(stdout, []stats.Series{s}, opts)
		}
		if *datDir != "" {
			if _, err := plot.WriteDat(*datDir, "metric", []stats.Series{s}); err != nil {
				fmt.Fprintln(os.Stderr, "topometrics:", err)
				return 1
			}
		}
	}
	return 0
}

func load(path string) (*graph.Graph, error) {
	if path == "" || path == "-" {
		return graph.ReadEdgeList(os.Stdin)
	}
	return graph.ReadEdgeListFile(path)
}
