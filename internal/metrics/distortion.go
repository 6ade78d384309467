package metrics

import (
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

// DistortionWith computes D(n) over an engine: for the subgraph inside an
// n-node ball, the average distance on a spanning tree T between the
// endpoints of each graph edge, minimized over candidate trees (§3.2.1).
// Following the paper's heuristic (footnote 14), the ball's "center" is the
// node the most shortest-path pairs traverse; the BFS tree rooted there (and
// at a few runner-up candidates — "our own heuristics") provides the
// spanning trees. roots <= 0 means 3. Balls grow on the worker pool, their
// subgraphs come from the shared ball cache, and the center election runs
// on the engine's leased kernel bundles.
func DistortionWith(e *ball.Engine, cfg ball.Config, roots int) stats.Series {
	if roots <= 0 {
		roots = 3
	}
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 3
	}
	raw := e.BallPointsKernels(cfg, 0, func(sub *graph.Graph, _ int, _ *rand.Rand, k *ball.Kernels) (float64, bool) {
		d := SubgraphDistortionKernels(sub, roots, k)
		return d, d > 0
	})
	s := stats.Bucketize(raw, bucketRatio)
	s.Name = "distortion"
	return s
}

// betweennessMode selects the Brandes accumulation path for the center
// election. Production calls always take betweennessAuto; the forced
// routes exist for the tests that pin the two paths byte-identical.
type betweennessMode int

const (
	// betweennessAuto probes the subgraph's diameter (cheap double BFS
	// sweep) and routes: past the cutoff the frontiers are thin and the
	// scalar path wins; otherwise the bit-parallel kernel batches every
	// sampled source through one shared level sweep.
	betweennessAuto betweennessMode = iota
	// betweennessScalar forces the per-source scalar accumulation.
	betweennessScalar
	// betweennessBitParallel forces the batched kernel.
	betweennessBitParallel
)

// brandesDiameterCutoff is betweennessAuto's routing threshold, matching
// the distance sweeps' cutoff in internal/ball: high-diameter subgraphs
// (lattice balls) keep the scalar path.
const brandesDiameterCutoff = 32

// distScratch is the distortion workspace family — the spanning-tree arrays
// and the betweenness accumulators — leased per subgraph through the
// unified ball.Pool layer. Traversal scratch (BFS, Brandes strips) comes
// from the ball.Kernels bundle instead, so engine-driven calls share the
// per-worker kernels every other ball metric uses.
type distScratch struct {
	parent, depth, queue []int32
	sources              []int32
	bc, delta            []float64
}

var distPool = ball.NewPool(func() *distScratch { return &distScratch{} })

// standaloneKernels serves the entry points that run without an engine
// lease (direct SubgraphDistortion calls): the same bundle shape, pooled
// through the same layer, minus the engine's counters.
var standaloneKernels = ball.NewPool(func() *ball.Kernels {
	return &ball.Kernels{BFS: graph.NewBFSScratch(), Brandes: graph.NewBrandesScratch()}
})

// SubgraphDistortion returns the distortion estimate for one connected
// graph: the minimum, over BFS trees rooted at the top `roots` betweenness
// candidates, of the average tree distance between edge endpoints. Returns
// 0 for graphs with no edges.
func SubgraphDistortion(sub *graph.Graph, roots int) float64 {
	k := standaloneKernels.Get()
	defer standaloneKernels.Put(k)
	return SubgraphDistortionKernels(sub, roots, k)
}

// SubgraphDistortionKernels is SubgraphDistortion on a leased kernel
// bundle: the betweenness election runs on k's BFS scratch or bit-parallel
// Brandes strips, routed by the subgraph's diameter, and the tree arrays
// come from the pooled distortion workspace, so the per-ball hot path is
// allocation-free.
func SubgraphDistortionKernels(sub *graph.Graph, roots int, k *ball.Kernels) float64 {
	return subgraphDistortion(sub, roots, betweennessAuto, k)
}

// subgraphDistortion is SubgraphDistortionKernels with the betweenness
// route chosen by mode.
func subgraphDistortion(sub *graph.Graph, roots int, mode betweennessMode, k *ball.Kernels) float64 {
	n := sub.NumNodes()
	if n < 2 || sub.NumEdges() == 0 {
		return 0
	}
	ws := distPool.Get()
	defer distPool.Put(ws)
	centers := topBetweenness(sub, roots, mode, k, ws)
	// One scratch set serves every candidate root: each BFS rewrites the
	// tree arrays in full, and the edge sweep order is fixed by the CSR.
	ws.parent = growInts(ws.parent, n)
	ws.depth = growInts(ws.depth, n)
	ws.queue = growInts(ws.queue, n)[:0]
	best := -1.0
	for _, c := range centers {
		d := bfsTreeDistortion(sub, c, ws.parent, ws.depth, ws.queue)
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}

// topBetweenness returns up to k nodes with the highest approximate
// betweenness, computed by Brandes' accumulation from a sample of sources —
// scalar per source or bit-parallel per batch, per mode.
func topBetweenness(g *graph.Graph, k int, mode betweennessMode, kn *ball.Kernels, ws *distScratch) []int32 {
	n := g.NumNodes()
	sources := n
	const maxSources = 24
	if sources > maxSources {
		sources = maxSources
	}
	ws.bc = growFloats(ws.bc, n)
	bc := ws.bc
	for i := range bc {
		bc[i] = 0
	}
	r := rand.New(rand.NewSource(int64(n)*7919 + 17))
	perm := r.Perm(n)
	if mode == betweennessAuto {
		if graph.ApproxDiameter(g, kn.BFS) > brandesDiameterCutoff {
			mode = betweennessScalar
		} else {
			mode = betweennessBitParallel
		}
	}
	if mode == betweennessBitParallel {
		ws.sources = ws.sources[:0]
		for si := 0; si < sources; si++ {
			ws.sources = append(ws.sources, int32(perm[si]))
		}
		batches := int64(0)
		for lo := 0; lo < len(ws.sources); lo += graph.BrandesWidth {
			hi := lo + graph.BrandesWidth
			if hi > len(ws.sources) {
				hi = len(ws.sources)
			}
			kn.Brandes.Accumulate(g, ws.sources[lo:hi], bc)
			batches++
		}
		kn.CountBrandes(batches, 0)
	} else {
		kn.CountBrandes(0, 1)
		// The scalar fallback runs the exact accumulation (and float
		// ordering) of the original per-source loop, on pooled epoch-
		// stamped scratch instead of three fresh arrays per source.
		ws.delta = growFloats(ws.delta, n)
		delta := ws.delta
		s := kn.BFS
		for si := 0; si < sources; si++ {
			src := int32(perm[si])
			order := s.Counts(g, src)
			for i := range delta {
				delta[i] = 0
			}
			for i := len(order) - 1; i >= 0; i-- {
				w := order[i]
				dw := s.Dist(w)
				for _, v := range g.Neighbors(w) {
					if s.Dist(v) == dw-1 {
						delta[v] += s.Sigma(v) / s.Sigma(w) * (1 + delta[w])
					}
				}
				if w != src {
					bc[w] += delta[w]
				}
			}
		}
	}
	// Partial top-k selection by (betweenness desc, id asc): one insertion
	// pass over bc into a k-slot slice, instead of materializing and
	// selection-sorting an n-entry candidate slice per ball.
	if k > n {
		k = n
	}
	top := make([]int32, 0, k)
	for v := int32(0); v < int32(n); v++ {
		pos := len(top)
		for pos > 0 && bc[top[pos-1]] < bc[v] {
			pos--
		}
		if pos == k {
			continue
		}
		if len(top) < k {
			top = append(top, 0)
		}
		copy(top[pos+1:], top[pos:len(top)-1])
		top[pos] = v
	}
	return top
}

// growInts returns b resized to n, reallocating only on growth.
func growInts(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// growFloats returns b resized to n, reallocating only on growth.
func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// bfsTreeDistortion builds the BFS tree rooted at root and returns the
// average tree distance between the endpoints of every graph edge. Tree
// distances use parent walks (depth-bounded, cheap on BFS trees); edges are
// swept straight off the CSR in (U, V) order, so no edge list is ever
// materialized. The parent/depth/queue scratch is caller-owned so it can be
// reused across roots.
func bfsTreeDistortion(g *graph.Graph, root int32, parent, depth, queue []int32) float64 {
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = root
	depth[root] = 0
	queue = append(queue[:0], root)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if parent[v] == -1 {
				parent[v] = u
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	total, count := 0.0, 0
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				total += float64(treeDist(parent, depth, u, v))
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// treeDist walks u and v up to their lowest common ancestor.
func treeDist(parent, depth []int32, u, v int32) int32 {
	d := int32(0)
	for depth[u] > depth[v] {
		u = parent[u]
		d++
	}
	for depth[v] > depth[u] {
		v = parent[v]
		d++
	}
	for u != v {
		u = parent[u]
		v = parent[v]
		d += 2
	}
	return d
}
