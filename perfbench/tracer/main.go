// Command tracer is the traced half of the perfbench benchmark. It runs the
// batch pipeline in-process at worker width 1 and records one span around
// every call it makes into the repository's public functions, so span time
// is self time and the per-layer figures add up to the run's wall time:
//
//	network builds      Runner.Measured / Runner.Network (core.BuildMeasured,
//	                    core.BuildNetwork)
//	suite metrics       the exported metrics.* and hierarchy.* functions,
//	                    called per network exactly as core.RunSuite calls them
//	suite               Runner.Suite (core.RunSuite at Parallelism 1)
//	panels              the Runner's figure and table accessors
//	serialization       plot.WriteDat
//
// The series from its own metric calls must equal core.RunSuite's byte for
// byte; a mismatch is reported and fails the run. Counters come from the
// Runner's metrics registry, which the program keeps on every run, and the
// live heap is sampled from a goroutine of this program while the
// link-value sweeps run. The last line of stdout is one JSON object.
//
// It runs experiments.QuickConfig(1), the configuration of reproduce -quick.
//
//	tracer [-builds-only] [-out dir]
package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"topocmp/internal/ball"
	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/hierarchy"
	tm "topocmp/internal/metrics"
	"topocmp/internal/obs"
	"topocmp/internal/partition"
	"topocmp/internal/plot"
	"topocmp/internal/stats"
)

// span is one timed call. Its self time goes to the layer named in do; the
// root's self time is the "gap" (this program's own glue).
type span struct {
	start    time.Time
	dur      time.Duration
	children time.Duration // summed durations of direct children
	alloc    uint64        // heap bytes allocated during the span
}

type tracer struct {
	stack []*span
	self  map[string]time.Duration
	alloc map[string]uint64
}

func newTracer() *tracer {
	t := &tracer{self: map[string]time.Duration{}, alloc: map[string]uint64{}}
	t.stack = []*span{{start: time.Now()}}
	return t
}

// do runs f inside a span attributed to layer.
func (t *tracer) do(layer string, f func()) {
	s := &span{alloc: heapAllocs(), start: time.Now()}
	t.stack = append(t.stack, s)
	f()
	s.dur = time.Since(s.start)
	s.alloc = heapAllocs() - s.alloc
	t.stack = t.stack[:len(t.stack)-1]
	parent := t.stack[len(t.stack)-1]
	parent.children += s.dur
	t.self[layer] += s.dur - s.children
	t.alloc[layer] += s.alloc
}

// end closes the root span and returns the traced wall time.
func (t *tracer) end() time.Duration {
	root := t.stack[0]
	root.dur = time.Since(root.start)
	t.self["gap"] = root.dur - root.children
	return root.dur
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// heapWatch samples the live heap every few milliseconds while armed and
// keeps the highest value seen.
type heapWatch struct {
	armed atomic.Bool
	high  atomic.Uint64
	stop  chan struct{}
	done  sync.WaitGroup
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if !h.armed.Load() {
					continue
				}
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > h.high.Load() {
					h.high.Store(v)
				}
			}
		}
	}()
	return h
}

func (h *heapWatch) close() { close(h.stop); h.done.Wait() }

// defaultTolerance mirrors core.SuiteOptions' default removal fractions.
var defaultTolerance = []float64{0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20}

// ownSuite calls the exported metric and hierarchy functions on one network
// in core.RunSuite's order and with its seeds, each call in its own span, and
// returns the results in a SuiteResult for comparison.
func ownSuite(t *tracer, hw *heapWatch, n *core.Network, o core.SuiteOptions) *core.SuiteResult {
	res := &core.SuiteResult{Network: n}
	g := n.Graph
	eng := ball.NewEngine(g, 1)
	srcBudget, pathBudget := 4*o.Sources, 2*o.Sources
	tol := o.ToleranceFractions
	if tol == nil {
		tol = defaultTolerance
	}
	curveCfg := func() ball.Config {
		return ball.Config{MaxSources: o.Sources, MaxBallSize: o.MaxBallSize,
			Rand: rand.New(rand.NewSource(o.Seed + 1))}
	}
	t.do("metrics.expansion", func() {
		res.Expansion = tm.ExpansionWith(eng, ball.Config{MaxSources: srcBudget,
			Rand: rand.New(rand.NewSource(o.Seed))})
	})
	t.do("metrics.resilience", func() {
		res.Resilience = tm.ResilienceWith(eng, curveCfg(), partition.Options{}, o.Seed+100)
	})
	t.do("metrics.distortion", func() { res.Distortion = tm.DistortionWith(eng, curveCfg(), 3) })
	t.do("linalg.eigen", func() { res.Eigenvalues = tm.EigenvalueSpectrum(g, o.EigenRank) })
	t.do("metrics.eccentricity", func() {
		res.Eccentricity = tm.EccentricityDistributionWith(eng, srcBudget, 0.1,
			rand.New(rand.NewSource(o.Seed)))
	})
	t.do("metrics.vertex_cover", func() { res.VertexCover = tm.VertexCoverCurveWith(eng, curveCfg()) })
	t.do("metrics.biconnectivity", func() {
		res.Biconnectivity = tm.BiconnectivityCurveWith(eng, curveCfg())
	})
	t.do("metrics.tolerance", func() {
		res.Attack = tm.AttackTolerance(g, tol, pathBudget)
		res.Error = tm.ErrorTolerance(g, tol, pathBudget, rand.New(rand.NewSource(o.Seed+200)))
	})
	t.do("metrics.clustering", func() {
		res.Clustering = tm.ClusteringCurveWith(eng, curveCfg())
		res.WholeGraphClustering = tm.ClusteringCoefficient(g)
	})
	if o.SkipHierarchy {
		return res
	}
	hw.armed.Store(true)
	defer hw.armed.Store(false)
	t.do("hierarchy.link_values", func() {
		lvGraph := g
		if n.Overlay != nil {
			if c, _ := g.Core(); c.NumNodes() >= 3 {
				lvGraph = c
			}
		}
		res.LinkValues = hierarchy.LinkValues(lvGraph, hierarchy.Options{
			MaxSources: o.LinkSources, Rand: rand.New(rand.NewSource(o.Seed + 300)),
			Parallelism: 1, Sigma: o.LinkSigma})
	})
	if n.Policy != nil {
		t.do("hierarchy.policy_link_values", func() {
			res.PolicyLinkValues = hierarchy.PolicyLinkValues(n.Policy, hierarchy.Options{
				MaxSources: o.LinkSources, Rand: rand.New(rand.NewSource(o.Seed + 400)),
				Parallelism: 1, Sigma: o.LinkSigma})
		})
	}
	return res
}

// encode serializes a value for a byte-for-byte comparison (gob keeps NaN
// and every float bit). A nil link-value result encodes as nil.
func encode(v any) []byte {
	if lv, ok := v.(*hierarchy.Result); ok && lv == nil {
		return nil
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// compare returns the names of the results where own and ref differ.
func compare(own, ref *core.SuiteResult) []string {
	pairs := []struct {
		name     string
		own, ref any
	}{
		{"expansion", own.Expansion, ref.Expansion},
		{"resilience", own.Resilience, ref.Resilience},
		{"distortion", own.Distortion, ref.Distortion},
		{"eigenvalues", own.Eigenvalues, ref.Eigenvalues},
		{"eccentricity", own.Eccentricity, ref.Eccentricity},
		{"vertex_cover", own.VertexCover, ref.VertexCover},
		{"biconnectivity", own.Biconnectivity, ref.Biconnectivity},
		{"attack", own.Attack, ref.Attack},
		{"error", own.Error, ref.Error},
		{"clustering", own.Clustering, ref.Clustering},
		{"whole_graph_clustering", own.WholeGraphClustering, ref.WholeGraphClustering},
		{"link_values", own.LinkValues, ref.LinkValues},
		{"policy_link_values", own.PolicyLinkValues, ref.PolicyLinkValues},
	}
	var bad []string
	for _, p := range pairs {
		if !bytes.Equal(encode(p.own), encode(p.ref)) {
			bad = append(bad, p.name)
		}
	}
	return bad
}

// spanSeconds sums the durations of the program's own spans under root whose
// names are in want.
func spanSeconds(root *obs.Span, want ...string) float64 {
	total := 0.0
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		for _, c := range s.Children() {
			for _, w := range want {
				if c.Name() == w {
					total += c.Duration().Seconds()
				}
			}
			walk(c)
		}
	}
	walk(root)
	return total
}

type result struct {
	Correct    bool               `json:"correct"`
	Mismatches []string           `json:"mismatches"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	buildsOnly := flag.Bool("builds-only", false, "build the table networks and stop")
	out := flag.String("out", "", "directory for the .dat files the panels write")
	flag.Parse()
	if *out == "" && !*buildsOnly {
		fmt.Fprintln(os.Stderr, "tracer: need -out dir or -builds-only")
		os.Exit(2)
	}
	res := run(experiments.QuickConfig(1), *buildsOnly, *out)
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}

func run(cfg experiments.Config, buildsOnly bool, out string) result {
	cfg.Suite.Parallelism = 1
	r := experiments.NewRunner(cfg)
	r.Workers = 1
	progTracer := obs.NewTracer("pipeline")
	r.Trace = progTracer.Root()
	reg := r.Metrics()
	hw := startHeapWatch()
	t := newTracer()
	res := result{Metrics: map[string]float64{}}

	t.do("measure", func() { r.Measured() })
	for _, name := range experiments.AllTableNames {
		var n *core.Network
		if name == "AS" || name == "RL" {
			n = r.Network(name) // built by Measured above
		} else {
			t.do("gen", func() { n = r.Network(name) })
		}
		if buildsOnly {
			continue
		}
		own := ownSuite(t, hw, n, cfg.Suite)
		var ref *core.SuiteResult
		t.do("core.suite", func() { ref = r.Suite(name) })
		for _, m := range compare(own, ref) {
			res.Mismatches = append(res.Mismatches, name+"/"+m)
		}
	}
	if !buildsOnly {
		panels(t, r, out, &res)
	}
	wall := t.end()
	hw.close()

	m := res.Metrics
	sec := func(layer string) float64 { return t.self[layer].Seconds() }
	mb := func(layer string) float64 { return float64(t.alloc[layer]) / (1 << 20) }
	m["gen.build_s"], m["gen.alloc_mb"] = sec("gen"), mb("gen")
	m["measure.build_s"], m["measure.alloc_mb"] = sec("measure"), mb("measure")
	for _, k := range []string{"expansion", "resilience", "distortion", "eccentricity",
		"vertex_cover", "biconnectivity", "tolerance", "clustering"} {
		m["metrics."+k+"_s"] = sec("metrics." + k)
	}
	m["linalg.eigen_s"] = sec("linalg.eigen")
	m["hierarchy.link_values_s"] = sec("hierarchy.link_values")
	m["hierarchy.policy_link_values_s"] = sec("hierarchy.policy_link_values")
	m["hierarchy.alloc_mb"] = mb("hierarchy.link_values") + mb("hierarchy.policy_link_values")
	m["hierarchy.heap_high_mb"] = float64(hw.high.Load()) / (1 << 20)
	m["core.suite_s"] = sec("core.suite")
	m["core.policy_curves_s"] = spanSeconds(progTracer.Root(), "policy_expansion", "policy_ball_curves")
	m["experiments.prefetch_s"] = sec("experiments.prefetch")
	m["experiments.panels_s"] = sec("experiments.panels")
	m["experiments.fig11_s"] = sec("experiments.fig11")
	m["plot.write_s"] = sec("plot.write")

	snap := reg.Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	m["bgp.paths_collected"] = c("bgp.paths_collected")
	m["traceroute.routers_discovered"] = c("traceroute.routers_discovered")
	for _, k := range []string{"profiles", "bfs_visits", "msbfs_batches", "msbfs_sources",
		"dist_scalar", "brandes_batches"} {
		m["ball."+k] = c("ball." + k)
	}
	m["ball.kernel_reuse"] = 0
	if gets := c("ball.kernel_gets"); gets > 0 {
		m["ball.kernel_reuse"] = 1 - c("ball.kernel_allocs")/gets
	}
	m["hierarchy.sigma_batches"] = c("hierarchy.sigma_batches")
	m["hierarchy.sigma_scalar"] = c("hierarchy.sigma_scalar")
	m["experiments.sem_wait_s"] = float64(snap.Histograms["pipeline.sem_wait"].SumNs) / 1e9
	m["pipeline.network_builds"] = c("pipeline.network_builds")
	m["pipeline.suite_runs"] = c("pipeline.suite_runs")

	// Accounting: every second of the traced wall time is some layer's self
	// time; the root's own share is the gap.
	var layers float64
	for layer, d := range t.self {
		if layer != "gap" {
			layers += d.Seconds()
		}
	}
	m["trace.wall_s"] = wall.Seconds()
	m["trace.layers_s"] = layers
	m["trace.gap_s"] = sec("gap")
	// The pipeline-equivalent time: the wall time minus this program's own
	// metric calls, which an untraced reproduce run does not make.
	own := 0.0
	for layer, d := range t.self {
		if strings.HasPrefix(layer, "metrics.") || strings.HasPrefix(layer, "hierarchy.") ||
			layer == "linalg.eigen" {
			own += d.Seconds()
		}
	}
	m["trace.pipeline_s"] = wall.Seconds() - own - sec("gap")
	sort.Strings(res.Mismatches)
	res.Correct = len(res.Mismatches) == 0
	return res
}

// panels runs reproduce's artifact stages through the Runner's accessors,
// each in an experiments span, with every .dat file written through
// plot.WriteDat in a plot span.
func panels(t *tracer, r *experiments.Runner, out string, res *result) {
	var datBytes int64
	write := func(figure string, s []stats.Series) {
		t.do("plot.write", func() {
			paths, err := plot.WriteDat(out, figure, s)
			if err != nil {
				res.Mismatches = append(res.Mismatches, "plot:"+err.Error())
				return
			}
			for _, p := range paths {
				if fi, err := os.Stat(p); err == nil {
					datBytes += fi.Size()
				}
			}
		})
	}
	panel := func(f func()) { t.do("experiments.panels", f) }
	groups := []struct {
		key   string
		names []string
	}{
		{"canonical", experiments.CanonicalNames},
		{"measured", experiments.MeasuredNames},
		{"generated", experiments.GeneratedNames},
	}
	t.do("experiments.prefetch", r.Prefetch)
	panel(func() { r.Table1() })
	for _, g := range groups {
		panel(func() {
			p := r.Figure2(g.key, g.names)
			write("fig2_"+g.key+"_expansion", p.Expansion)
			write("fig2_"+g.key+"_resilience", p.Resilience)
			write("fig2_"+g.key+"_distortion", p.Distortion)
		})
	}
	panel(func() {
		vp := r.Figure12()
		write("fig2_variants_expansion", vp.Expansion)
		write("fig2_variants_resilience", vp.Resilience)
		write("fig2_variants_distortion", vp.Distortion)
		write("fig12_ccdf", vp.CCDF)
	})
	panel(func() { r.Table2(); r.Table3() })
	panel(func() {
		write("fig3_linkvalues", r.Figure3([]string{"Tree", "Mesh", "Random", "RL", "AS", "TS",
			"Tiers", "Waxman", "PLRG"}))
	})
	panel(func() { r.Table4() })
	panel(func() { r.Figure5() })
	for _, g := range groups {
		panel(func() { write("fig6_"+g.key, r.Figure6(g.names)) })
	}
	for _, g := range groups {
		names := g.names
		if g.key == "measured" {
			names = append([]string{"PLRG"}, names...)
		}
		panel(func() {
			write("fig7_eigen_"+g.key, r.Figure7Eigen(names))
			write("fig7_ecc_"+g.key, r.Figure7Ecc(names))
			write("fig8_cover_"+g.key, r.Figure8Cover(g.names))
			write("fig8_bicon_"+g.key, r.Figure8Bicon(g.names))
			att, errTol := r.Figure9(g.names)
			write("fig9_attack_"+g.key, att)
			write("fig9_error_"+g.key, errTol)
			write("fig10_"+g.key, r.Figure10(g.names))
		})
	}
	t.do("experiments.fig11", func() { r.Figure11() })
	panel(func() {
		rp := r.Figure13()
		write("fig13_expansion", rp.Expansion)
		write("fig13_resilience", rp.Resilience)
		write("fig13_distortion", rp.Distortion)
	})
	panel(func() { write("fig14_linkvalues", r.Figure14()) })
	panel(func() {
		cp := r.ConnectivityVariants()
		write("appD_connectivity_expansion", cp.Expansion)
		write("appD_connectivity_resilience", cp.Resilience)
		write("appD_connectivity_distortion", cp.Distortion)
	})
	panel(func() {
		rwp := r.RewiringPanel()
		write("nullmodel_rewire_expansion", rwp.Expansion)
		write("nullmodel_rewire_resilience", rwp.Resilience)
		write("nullmodel_rewire_distortion", rwp.Distortion)
	})
	panel(func() {
		e := r.Extras()
		write("extra_ballpathlen", e.PathLength)
		write("extra_surfaceflow", e.MaxFlow)
		write("extra_hopplot", e.Hop)
	})
	panel(func() {
		for _, c := range r.Summary() {
			if !c.Match {
				res.Mismatches = append(res.Mismatches, "summary:"+c.Name)
			}
		}
	})
	res.Metrics["plot.bytes"] = float64(datBytes)
}
