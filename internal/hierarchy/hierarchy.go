// Package hierarchy implements the paper's measure of hierarchy (§5): the
// link value. A link's traversal set is the set of node pairs whose
// shortest-path traffic crosses the link, each pair weighted by the
// fraction of its equal-cost shortest paths through the link; the link's
// value is the minimum weighted vertex cover of the bipartite graph formed
// by that traversal set, computed with the primal-dual 2-approximation.
//
// The distribution of (normalized) link values is the paper's hierarchy
// signature: strict (Tree, Transit-Stub, Tiers), moderate (AS, RL, PLRG),
// or loose (Mesh, Random, Waxman). The package also computes Figure 5's
// correlation between a link's value and the smaller degree of its
// endpoints.
package hierarchy

import (
	"math"
	"math/rand"
	"runtime"
	"slices"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/obs"
	"topocmp/internal/stats"
)

// Options tunes the computation.
type Options struct {
	// MaxSources caps the pair universe (0 = all nodes): when set, link
	// values are computed over the pairs Q×Q of a uniformly sampled node
	// set Q of this size, and normalized by |Q| instead of |V|. Sampling
	// both endpoints symmetrically preserves the vertex-cover structure
	// (one-sided source sampling would cap every cover at the sample
	// size). The paper bounds this cost the same way, computing RL link
	// values on the core graph and sampling nodes for large balls.
	MaxSources int
	// Rand drives sampling; nil uses a fixed seed.
	Rand *rand.Rand
	// Parallelism caps the source-sweep worker count; 0 uses GOMAXPROCS,
	// 1 runs sequentially. Results are identical at every width.
	Parallelism int
	// Sigma selects the shortest-path-count traversal implementation.
	// Results are byte-identical across modes on the graphs SigmaAuto
	// batches (path counts are exact integers in float64; see the golden
	// tests), so like Parallelism this is a performance knob, not a result
	// parameter.
	Sigma SigmaMode
	// Metrics, when non-nil, counts the source sweeps performed
	// (hierarchy.link_value_sweeps / hierarchy.policy_sweeps), the pair
	// entries they emitted (hierarchy.pair_entries, 16 bytes each) and the
	// sigma routing (hierarchy.sigma_batches / hierarchy.sigma_scalar,
	// width gauge hierarchy.sigma_width). Never affects results.
	Metrics *obs.Registry `json:"-"`
}

// SigmaMode picks how the sweeps obtain per-source distances and
// shortest-path counts.
type SigmaMode int

const (
	// SigmaAuto batches sources through the sigma-carrying MSBFS kernel
	// unless the diameter probe flags a lattice-like graph, which keeps the
	// scalar path (thin frontiers repeat mask work every level there, and
	// lattices are the graphs whose binomial path counts could leave
	// float64's exact-integer range).
	SigmaAuto SigmaMode = iota
	// SigmaScalar forces one scalar BFS per source — the historical path.
	SigmaScalar
	// SigmaBatched forces the batched kernel regardless of the probe.
	SigmaBatched
)

// sigmaRoute resolves whether a call batches through the sigma kernel:
// forced modes short-circuit, SigmaAuto probes the diameter with the same
// double-sweep estimate and threshold as ball.CumProfiles.
func (o *Options) sigmaRoute(g *graph.Graph) bool {
	switch o.Sigma {
	case SigmaScalar:
		return false
	case SigmaBatched:
		return true
	}
	ws := sweepPool.Get()
	defer sweepPool.Put(ws)
	return graph.ApproxDiameter(g, ws.bfs) <= ball.MSBFSDiameterCutoff
}

func (o *Options) defaults() {
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
}

// workers resolves the worker count for n source sweeps.
func (o *Options) workers(n int) int {
	w := o.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Result holds per-edge link values.
type Result struct {
	Edges  []graph.Edge
	Values []float64 // raw weighted-vertex-cover values, parallel to Edges
	// N is the normalization base: the node count, or the pair-universe
	// size |Q| when sampling was used.
	N int
	// Nodes is the graph's node count — the population the pair universe
	// was drawn from. Zero in results predating the field (old cache
	// entries are invalidated by the schema bump, but defensive callers
	// treat Nodes == 0 as "no bound available").
	Nodes int
}

// Normalized returns the link values divided by the node count, the
// normalization of Figures 3, 4 and 14.
func (r *Result) Normalized() []float64 {
	out := make([]float64, len(r.Values))
	for i, v := range r.Values {
		out[i] = v / float64(r.N)
	}
	return out
}

// RankDistribution returns the normalized link-value rank distribution:
// X = rank/|E|, Y = value/N, sorted by decreasing value.
//
// When the result records the source population (Nodes > 0), each point
// carries a coarse relative sampling bound: the per-edge value is a sum
// over the N sampled sources, so its relative standard error scales like
// the finite-population-corrected 1/sqrt(N) of a mean over sources —
// StdErr[i] = Y[i]·sqrt((Nodes−N)/((Nodes−1)·N)). Exactly zero for full
// enumeration (N == Nodes), i.e. zero-width bounds.
func (r *Result) RankDistribution() stats.Series {
	s := stats.RankDistribution(r.Normalized())
	s.Name = "linkvalues"
	if r.Nodes > 1 && r.N > 0 {
		fpc := 0.0
		if r.N < r.Nodes {
			fpc = math.Sqrt(float64(r.Nodes-r.N) / (float64(r.Nodes-1) * float64(r.N)))
		}
		s.StdErr = make([]float64, len(s.Points))
		for i, p := range s.Points {
			s.StdErr[i] = p.Y * fpc
		}
	}
	return s
}

// DegreeCorrelation returns the Pearson correlation between each link's
// value and the smaller of its endpoint degrees (Figure 5).
func (r *Result) DegreeCorrelation(g *graph.Graph) float64 {
	return r.DegreeCorrelationDegrees(g.Degrees())
}

// DegreeCorrelationDegrees is DegreeCorrelation over a plain degree slice
// (indexed by node id), so callers holding only a cached degree sequence —
// not the graph itself — can still compute Figure 5.
func (r *Result) DegreeCorrelationDegrees(deg []int) float64 {
	vals := make([]float64, len(r.Edges))
	mins := make([]float64, len(r.Edges))
	for i, e := range r.Edges {
		vals[i] = r.Values[i]
		du, dv := deg[e.U], deg[e.V]
		if dv < du {
			du = dv
		}
		mins[i] = float64(du)
	}
	return stats.Pearson(vals, mins)
}

// sweepScratch is one link-value worker's workspace — BFS scratch, the
// ancestor walk's g-value accumulators and level buckets, the policy walk's
// per-edge fraction accumulators, and the worker's entry store — leased
// through the unified ball.Pool layer, one bundle per worker per call. The
// float buffers rely on a zero-at-rest invariant (every walk resets what it
// touched), so a leased bundle behaves exactly like a fresh one.
type sweepScratch struct {
	bfs     *graph.BFSScratch
	msbfs   *graph.MSBFSScratch // sigma-batch kernel, allocated on first batched lease
	gval    []float64
	touched []int32
	buckets [][]int32
	localW  []float64 // per-edge fraction accumulators (policy walk)
	localE  []uint32  // edge ids touched in localW for the current target
	// store receives the worker's pair entries; it is read by the cover
	// pass, so a bundle goes back to the pool only once the values are
	// computed (sweepRun.release).
	store entryStore
	// Per-source shortest-path-DAG predecessor lists: pred arcs of b are its
	// neighbors one level closer to the source, in adjacency order, with
	// their dense edge ids alongside. Built lazily — a node's adjacency is
	// filtered the first time a target walk reaches it, memoized for the
	// source's remaining targets via pstamp — so with sampled pair universes
	// only the ancestors of sampled targets ever pay an adjacency scan.
	pstamp   graph.Stamp
	predLo   []int32 // b's pred arcs are predAdj[predLo[b]:predHi[b]]
	predHi   []int32 // valid only where pstamp has seen b
	predAdj  []int32 // fixed length m per source; predN is the fill cursor
	predEdge []uint32
	predN    int32
	// Product-space traversal buffers for policy sweeps, reused through
	// policy.ProductCountsInto (reset via porder, so they carry their own
	// zero-at-rest invariant), and a strip's product-space start states.
	pdist  []int32
	psigma []float64
	porder []int32
	psrc   []int32
}

var sweepPool = ball.NewPool(func() *sweepScratch {
	return &sweepScratch{bfs: graph.NewBFSScratch()}
})

// A few workspaces survive collections instead of being refaulted in every
// suite run; the entry chunks themselves live on the store's free list.
func init() {
	sweepPool.Keep(2)
	coverPool.Keep(1)
}

// grownZero returns b with length at least n; freshly grown storage is
// zeroed by make, and surviving storage is zero by the reset invariant.
func grownZero(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// sigmaPlan sizes the sweeps: on the batched route, the strip width from
// the pending sources like ball.CumProfiles (never starving the pool) and
// the worker count capped at the strip count; on the scalar route width 0.
// The routing counters are recorded either way.
func sigmaPlan(opts *Options, numSources, workers int, batched bool) (width, w int) {
	if !batched {
		opts.Metrics.Counter("hierarchy.sigma_scalar").Add(int64(numSources))
		return 0, workers
	}
	width = ball.BatchWidth(numSources, workers)
	strips := (numSources + width - 1) / width
	opts.Metrics.Gauge("hierarchy.sigma_width").Set(int64(width))
	opts.Metrics.Counter("hierarchy.sigma_batches").Add(int64(strips))
	return width, max(min(workers, strips), 1)
}

// LinkValues computes link values under shortest-path routing. Source
// sweeps run concurrently (the graph is immutable; each worker owns its
// leased scratch) and, on low-diameter graphs, in bit-parallel sigma
// batches — one CSR sweep per mask strip of up to graph.MSBFSMaxWidth
// sources instead of one scalar BFS each. The cover pass reads every
// edge's pairs in canonical order whatever the scheduling, and path counts
// are exact integers in float64 on the batched route, so the values are
// byte-identical across worker counts and sigma modes.
func LinkValues(g *graph.Graph, opts Options) *Result {
	opts.defaults()
	sources := sampleSources(g.NumNodes(), opts)
	opts.Metrics.Counter("hierarchy.link_value_sweeps").Add(int64(len(sources)))
	run := sweepLinks(g, sources, &opts)
	defer run.release()
	values := run.cover(g.NumEdges(), len(sources), &opts)
	return &Result{Edges: g.Edges(), Values: values, N: len(sources), Nodes: g.NumNodes()}
}

// sweepLinks runs the shortest-path walks of every sampled pair into the
// workers' entry stores. Both traversals feed the same walk: a sigma strip
// fills exact rows for a batch of sources, a scalar counting BFS fills rows
// that are stale only at unreached nodes — the target gate reads those
// through the epoch-guarded accessor, and the walk itself never reads them
// (every neighbor of a reached node is reached).
func sweepLinks(g *graph.Graph, sources []int32, opts *Options) sweepRun {
	n, m := g.NumNodes(), g.NumEdges()
	width, workers := sigmaPlan(opts, len(sources), opts.workers(len(sources)), opts.sigmaRoute(g))
	off, adj := g.CSR()
	arcIDs := graph.NewEdgeIndex(g).ArcIDs() // shared, read-only across workers
	return runSweeps(len(sources), width, workers, m, func(ws *sweepScratch, lo, hi int) {
		ws.gval = grownZero(ws.gval, n)
		if width > 0 {
			ws.msbfs.RunSigma(g, sources[lo:hi])
		}
		for i := lo; i < hi; i++ {
			var dist []int32
			var sigma []float64
			if width > 0 {
				dist, sigma = ws.msbfs.DistRow(i-lo), ws.msbfs.SigmaRow(i-lo)
			} else {
				ws.bfs.Counts(g, sources[i])
				dist, sigma = ws.bfs.Rows()
			}
			ws.beginPreds(n, m)
			fs := sourceSweep{off: off, adj: adj, arcIDs: arcIDs, dist: dist, sigma: sigma,
				predAdj: ws.predAdj, predEdge: ws.predEdge}
			// Ascending targets keep each source's entries (t)-sorted.
			for ti, t := range sources {
				var d int32
				if width > 0 {
					d = dist[t]
				} else {
					d = ws.bfs.Dist(t)
				}
				if ti == i || d <= 0 || d == graph.Unreached {
					continue
				}
				ws.sweepTarget(&fs, t, int(d), uint32(i), uint32(ti))
			}
		}
	})
}

// beginPreds resets the lazy predecessor state for a new source: one epoch
// bump and a cursor reset — no per-node clearing, predLo/predHi are only
// read where pstamp has seen the node. The arc buffers are sized to m up
// front: an undirected edge is a pred arc in at most one direction per
// source (its endpoints' distances differ by at most one), so m bounds a
// source's total pred-arc count and the buffers never reallocate — which
// lets sourceSweep hold them as stable slices the hot loops read without
// reloading.
func (ws *sweepScratch) beginPreds(n, m int) {
	ws.pstamp.Begin(n)
	ws.predLo = growI32(ws.predLo, n)
	ws.predHi = growI32(ws.predHi, n)
	ws.predAdj = growI32(ws.predAdj, m)
	if cap(ws.predEdge) < m {
		ws.predEdge = make([]uint32, m)
	} else {
		ws.predEdge = ws.predEdge[:m]
	}
	ws.predN = 0
}

// sourceSweep bundles one source's immutable walk inputs: the graph CSR,
// the arc-id table, the source's distance/path-count rows, and its pred-arc
// buffers (stable for the source's lifetime, see beginPreds).
type sourceSweep struct {
	off, adj []int32
	arcIDs   []uint32
	dist     []int32
	sigma    []float64
	predAdj  []int32
	predEdge []uint32
}

// buildPreds filters b's adjacency into its predecessor range. The lists
// come out in adjacency order whatever the target order, so the emitted
// entry order is fixed. Callers open-code the memoization check —
// `if ws.pstamp.Visit(b) { fs.buildPreds(b, ws) }` — so the per-visit fast
// path (an inlined epoch compare plus two range loads) never pays a call;
// only first touches enter here.
func (fs *sourceSweep) buildPreds(b int32, ws *sweepScratch) {
	base := fs.off[b]
	want := fs.dist[b] - 1
	k := ws.predN
	for i, a := range fs.adj[base:fs.off[b+1]] {
		if fs.dist[a] == want {
			fs.predAdj[k] = a
			fs.predEdge[k] = fs.arcIDs[base+int32(i)]
			k++
		}
	}
	ws.predLo[b], ws.predHi[b] = ws.predN, k
	ws.predN = k
}

// sweepTarget walks target t's shortest-path ancestor DAG from distance dt
// back to the source, computing per-edge path fractions (g values) and
// emitting one entry per DAG arc for the pair (ui, ti) of sample indices.
// Each node enters its level bucket once and each pred arc is walked once,
// so an edge appears at most once per pair. gval/touched/buckets are reused
// across targets (gval zeroed via touched).
//
// When the pair has a unique shortest path (sigma[t] == 1), the ancestor
// DAG is a single chain — every node on it also has path count 1, hence
// exactly one pred — and every fraction is exactly 1*1/1 = 1, so the walk
// degenerates to following single pred links with no g-value bookkeeping.
// Entry order and float values are identical to the general walk's.
func (ws *sweepScratch) sweepTarget(fs *sourceSweep, t int32, dt int, ui, ti uint32) {
	st := &ws.store
	sigma := fs.sigma
	if sigma[t] == 1 {
		b := t
		for d := dt; d >= 1; d-- {
			if ws.pstamp.Visit(b) {
				fs.buildPreds(b, ws)
			}
			lo := ws.predLo[b]
			if bk, x := st.pack(fs.predEdge[lo], ui, ti, 1); !st.push(bk, x) {
				st.grow(bk, x)
			}
			b = fs.predAdj[lo]
		}
		return
	}
	bs := ws.levelBuckets(dt)
	ws.gval[t] = 1
	ws.touched = append(ws.touched[:0], t)
	bs[dt] = append(bs[dt], t)
	for d := dt; d >= 1; d-- {
		for _, b := range bs[d] {
			gb := ws.gval[b]
			sb := sigma[b]
			if ws.pstamp.Visit(b) {
				fs.buildPreds(b, ws)
			}
			for i := ws.predLo[b]; i < ws.predHi[b]; i++ {
				a := fs.predAdj[i]
				frac := gb * sigma[a] / sb
				if bk, x := st.pack(fs.predEdge[i], ui, ti, frac); !st.push(bk, x) {
					st.grow(bk, x)
				}
				if ws.gval[a] == 0 {
					// First touch: schedule and track for reset.
					ws.touched = append(ws.touched, a)
					if d-1 >= 1 {
						bs[d-1] = append(bs[d-1], a)
					}
				}
				ws.gval[a] += frac
			}
		}
	}
	for _, v := range ws.touched {
		ws.gval[v] = 0
	}
}

// levelBuckets returns the walk's per-level node buckets 0..dt, emptied.
func (ws *sweepScratch) levelBuckets(dt int) [][]int32 {
	for len(ws.buckets) <= dt {
		ws.buckets = append(ws.buckets, nil)
	}
	bs := ws.buckets
	for d := 0; d <= dt; d++ {
		bs[d] = bs[d][:0]
	}
	return bs
}

// sampleSources returns the pair-universe node set Q in ascending node
// order. A node's position in it is its sample index, the id the entry
// store records: ascending order makes sample-index order node order, so
// the cover reaches the canonical (edge, u, t) grouping without a
// comparison sort.
// (Which nodes are sampled depends only on the Rand stream, not the order.)
func sampleSources(n int, opts Options) []int32 {
	if opts.MaxSources <= 0 || opts.MaxSources >= n {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	perm := opts.Rand.Perm(n)
	out := make([]int32, opts.MaxSources)
	for i := range out {
		out[i] = int32(perm[i])
	}
	slices.Sort(out)
	return out
}

func growI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}
