package core

import (
	"fmt"
	"math"
	"math/rand"

	"topocmp/internal/bgp"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/gen/tiers"
	"topocmp/internal/gen/transitstub"
	"topocmp/internal/gen/waxman"
	"topocmp/internal/internetsim"
	"topocmp/internal/obs"
	"topocmp/internal/policy"
	"topocmp/internal/traceroute"
)

// PaperSetOptions controls the construction of the Figure 1 network set.
type PaperSetOptions struct {
	Seed int64
	// Scale multiplies the sizes of the large networks (measured graphs,
	// PLRG, Tiers, Waxman, Random); 1.0 approximates the paper's sizes,
	// the default 0.3 keeps full-suite runs at laptop timescales. The
	// canonical Mesh/Tree and the 1008-node Transit-Stub are fixed-size as
	// in the paper.
	Scale float64
	// AliasFailure injects alias-resolution noise into the simulated
	// traceroute sweep (see traceroute.Options.AliasFailure); zero keeps
	// the sweep clean. Used to test the conclusions' robustness to
	// measurement artifacts the real SCAN map carries.
	AliasFailure float64

	// Metrics, when non-nil, receives the measurement pipeline's sweep
	// counters (bgp.* and traceroute.*). Never affects the constructed
	// networks, so it is excluded from CacheKey and the manifest config.
	Metrics *obs.Registry `json:"-"`
}

func (o *PaperSetOptions) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == 0 {
		o.Scale = 0.3
	}
}

// ScalePresets maps the named -scale modes to their multipliers. "full-rl"
// is calibrated empirically so the measurement pipeline's traceroute sweep
// discovers the real SCAN/Mercator map's node count (at seed 1 it yields a
// 170,555-node RL graph against the map's 170,589 — within 0.02%); "1m"
// drives the degree-based generators to million-node instances (PLRG's base
// of 10,000 × 100). Both lean on the streamed CSR build path: at these
// sizes the map-backed builder's memory overhead is the binding constraint.
var ScalePresets = map[string]float64{
	"full-rl": 3.81,
	"1m":      100,
}

func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

// MaxScale bounds Scale. The largest useful preset ("1m") is 100; anything
// far beyond it indicates a typo (a stray exponent would otherwise attempt a
// build with quadrillions of nodes).
const MaxScale = 1000

// Validate rejects set options no network can be built from: Scale must
// be finite, non-negative (zero picks the default) and at most MaxScale,
// and AliasFailure a probability in [0, 1]. Every entry point that accepts
// options from outside the process checks them here before keying or
// building.
func (o PaperSetOptions) Validate() error {
	if math.IsNaN(o.Scale) || math.IsInf(o.Scale, 0) || o.Scale < 0 {
		return fmt.Errorf("core: scale %v is not a finite non-negative value", o.Scale)
	}
	if o.Scale > MaxScale {
		return fmt.Errorf("core: scale %v exceeds the bound %d (the largest preset, 1m, is 100)",
			o.Scale, MaxScale)
	}
	if math.IsNaN(o.AliasFailure) || o.AliasFailure < 0 || o.AliasFailure > 1 {
		return fmt.Errorf("core: alias failure %v outside [0, 1]", o.AliasFailure)
	}
	return nil
}

// CacheKey returns a canonical description of the options for the result
// cache. Every field that influences the constructed networks appears here
// (Metrics does not, so it is excluded); adding a result-affecting field to
// PaperSetOptions must extend this string (or bump cache.SchemaVersion) so
// stale entries are invalidated.
func (o PaperSetOptions) CacheKey() string {
	o.defaults()
	return fmt.Sprintf("set:seed=%d,scale=%g,alias=%g", o.Seed, o.Scale, o.AliasFailure)
}

// MeasuredSet holds the simulated measurement pipeline's products: the
// ground truth and the measured graphs derived from it.
type MeasuredSet struct {
	TruthAS *internetsim.ASLevel
	TruthRL *internetsim.RouterLevel
	AS      *Network // measured AS graph with Gao-inferred annotations
	RL      *Network // measured RL graph with AS overlay
}

// BuildMeasured runs the substitution pipeline of DESIGN.md: synthesize a
// ground-truth Internet, collect BGP tables at backbone vantages, sweep
// traceroutes from a few sources, and assemble the measured AS and RL
// graphs the rest of the study compares against.
func BuildMeasured(opts PaperSetOptions) *MeasuredSet {
	opts.defaults()
	r := rand.New(rand.NewSource(opts.Seed))

	numAS := scaled(10941, opts.Scale, 600)
	truthAS := internetsim.MustGenerateAS(r, internetsim.ASParams{NumAS: numAS})

	// AS measurement: BGP collection at ~20 backbone vantages, Gao
	// inference on the collected paths (renumbered into measured-graph ids).
	vantages := bgp.PickVantages(truthAS.Graph, 20, r)
	table := bgp.Collect(truthAS.Annotated, vantages)
	asGraph, asOrig := table.ExtractGraph()
	opts.Metrics.Counter("bgp.vantages").Add(int64(len(vantages)))
	opts.Metrics.Counter("bgp.paths_collected").Add(int64(len(table.Paths)))
	// Renumber paths into measured ids for inference.
	index := make(map[int32]int32, len(asOrig))
	for i, as := range asOrig {
		index[as] = int32(i)
	}
	paths := make([][]int32, 0, len(table.Paths))
	for _, p := range table.Paths {
		np := make([]int32, len(p))
		for i, as := range p {
			np[i] = index[as]
		}
		paths = append(paths, np)
	}
	asAnnotated := policy.InferGao(asGraph, paths)
	asNet := &Network{Name: "AS", Category: Measured, Graph: asGraph, Policy: asAnnotated}

	// RL measurement: router expansion of a (smaller) AS truth, then a
	// traceroute sweep. The RL graph is ~17x the AS graph in the paper; we
	// target a comparable ratio at reduced absolute scale.
	rlAS := truthAS
	truthRL := internetsim.MustGenerateRouters(r, rlAS, internetsim.RouterParams{})
	rlGraph, rlOrig := traceroute.Sweep(truthRL.Overlay, truthRL.Backbone, traceroute.Options{
		Sources: 8, DestFraction: 0.5, AliasFailure: opts.AliasFailure, Rand: r,
	})
	opts.Metrics.Counter("traceroute.routers_discovered").Add(int64(rlGraph.NumNodes()))
	opts.Metrics.Counter("traceroute.links_discovered").Add(int64(rlGraph.NumEdges()))
	asOf := make([]int32, rlGraph.NumNodes())
	for i, orig := range rlOrig {
		asOf[i] = truthRL.ASOf[orig]
	}
	overlay, err := policy.NewRouterOverlay(rlGraph, asOf, rlAS.Annotated)
	if err != nil {
		panic(fmt.Sprintf("core: measured RL overlay: %v", err))
	}
	rlNet := &Network{Name: "RL", Category: Measured, Graph: rlGraph, Overlay: overlay}

	return &MeasuredSet{TruthAS: truthAS, TruthRL: truthRL, AS: asNet, RL: rlNet}
}

// GeneratedNetworkNames and CanonicalNetworkNames list the Figure 1
// networks in their inventory (assembly) order; MeasuredNetworkNames are
// the two products of the measurement pipeline. Together they define the
// units the experiment pipeline can build independently.
var (
	MeasuredNetworkNames  = []string{"AS", "RL"}
	GeneratedNetworkNames = []string{"PLRG", "TS", "Tiers", "Waxman"}
	CanonicalNetworkNames = []string{"Mesh", "Random", "Tree", "Complete", "Linear"}
)

// BuildNetwork constructs one named generated or canonical network. Every
// network draws from its own seeded RNG (derived from opts.Seed and a
// per-network offset, never a shared stream), so networks can be built in
// any order — or concurrently — and come out bit-identical to the
// sequential BuildGenerated/BuildCanonical assembly. Measured networks
// ("AS", "RL") share the measurement pipeline and are built via
// BuildMeasured instead; BuildNetwork returns nil for them and for unknown
// names.
func BuildNetwork(name string, opts PaperSetOptions) *Network {
	opts.defaults()
	mk := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(opts.Seed + seed)) }
	switch name {
	case "PLRG":
		plrgN := scaled(10000, opts.Scale, 800)
		return &Network{Name: "PLRG", Category: Generated,
			Graph: plrg.MustGenerate(mk(11), plrg.Params{N: plrgN, Beta: 2.246})}
	case "TS":
		return &Network{Name: "TS", Category: Generated,
			Graph: transitstub.MustGenerate(mk(12), transitstub.Paper())}
	case "Tiers":
		tiersP := tiers.Paper()
		if opts.Scale < 0.9 {
			tiersP.MANsPerWAN = scaled(50, opts.Scale, 8)
			tiersP.WANNodes = scaled(500, opts.Scale, 60)
		}
		return &Network{Name: "Tiers", Category: Generated,
			Graph: tiers.MustGenerate(mk(13), tiersP)}
	case "Waxman":
		waxN := scaled(5000, opts.Scale, 600)
		// Waxman's alpha controls an O(N) expected degree: rescale it so the
		// scaled-down instance keeps the paper instance's ~7.2 average degree
		// instead of falling under the percolation threshold.
		waxAlpha := 0.005 * 5000 / float64(waxN)
		if waxAlpha > 1 {
			waxAlpha = 1
		}
		return &Network{Name: "Waxman", Category: Generated,
			Graph: waxman.MustGenerate(mk(14), waxman.Params{N: waxN, Alpha: waxAlpha, Beta: 0.30})}
	case "Mesh":
		return &Network{Name: "Mesh", Category: Canonical, Graph: canonical.Mesh(30, 30)}
	case "Random":
		randomN := scaled(5018, opts.Scale, 600)
		return &Network{Name: "Random", Category: Canonical,
			Graph: canonical.Random(mk(21), randomN+randomN/30, 4.18/float64(randomN))}
	case "Tree":
		return &Network{Name: "Tree", Category: Canonical, Graph: canonical.Tree(3, 6)}
	case "Complete":
		return &Network{Name: "Complete", Category: Canonical, Graph: canonical.Complete(150)}
	case "Linear":
		return &Network{Name: "Linear", Category: Canonical, Graph: canonical.Linear(500)}
	}
	return nil
}

// BuildGenerated constructs the Figure 1 generated networks.
func BuildGenerated(opts PaperSetOptions) []*Network {
	nets := make([]*Network, 0, len(GeneratedNetworkNames))
	for _, name := range GeneratedNetworkNames {
		nets = append(nets, BuildNetwork(name, opts))
	}
	return nets
}

// BuildCanonical constructs the Figure 1 canonical networks plus the
// Complete and Linear calibration graphs of §3.2.1.
func BuildCanonical(opts PaperSetOptions) []*Network {
	nets := make([]*Network, 0, len(CanonicalNetworkNames))
	for _, name := range CanonicalNetworkNames {
		nets = append(nets, BuildNetwork(name, opts))
	}
	return nets
}

// BuildPaperNetworks assembles the complete Figure 1 inventory: measured,
// generated and canonical.
func BuildPaperNetworks(opts PaperSetOptions) []*Network {
	opts.defaults()
	ms := BuildMeasured(opts)
	nets := []*Network{ms.AS, ms.RL}
	nets = append(nets, BuildGenerated(opts)...)
	nets = append(nets, BuildCanonical(opts)...)
	return nets
}
