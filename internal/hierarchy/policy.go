package hierarchy

import (
	"topocmp/internal/graph"
	"topocmp/internal/policy"
)

// PolicyLinkValues computes link values with pairs routed over shortest
// valley-free (policy) paths instead of plain shortest paths, as the paper
// does for the AS and RL graphs ("with policy routing, since paths are more
// concentrated, the highest link values are larger").
//
// On the batched route the valley-free product graph is materialized once
// as a directed CSR (policy.ProductCSR) and each mask strip runs one
// bit-parallel sigma sweep over it — replacing both the per-source product
// BFS and its per-edge relationship map lookups. Product path counts are
// exact integers in float64, so the values are byte-identical to the
// scalar route's.
func PolicyLinkValues(a *policy.Annotated, opts Options) *Result {
	opts.defaults()
	g := a.G
	ix := graph.NewEdgeIndex(g)
	n, m, ns := g.NumNodes(), g.NumEdges(), policy.NumStates
	sources := sampleSources(n, opts)
	opts.Metrics.Counter("hierarchy.policy_sweeps").Add(int64(len(sources)))

	width, workers := sigmaPlan(&opts, len(sources), opts.workers(len(sources)), opts.sigmaRoute(g))
	var poff, padj []int32
	if width > 0 {
		poff, padj = a.ProductCSR()
	}
	run := runSweeps(len(sources), width, workers, m, func(ws *sweepScratch, lo, hi int) {
		ws.gval = grownZero(ws.gval, n*ns)
		ws.localW = grownZero(ws.localW, m)
		if width > 0 {
			ws.psrc = ws.psrc[:0]
			for _, u := range sources[lo:hi] {
				ws.psrc = append(ws.psrc, policy.ProductStart(u))
			}
			ws.msbfs.RunSigmaCSR(n*ns, poff, padj, ws.psrc)
		}
		for i := lo; i < hi; i++ {
			// Both routes hand in fully initialized product rows (the scalar
			// buffers by their Unreached-reset invariant, the kernel rows by
			// RunSigma's pre-fill), so the state scan reads them raw.
			var dist []int32
			var sigma []float64
			if width > 0 {
				dist, sigma = ws.msbfs.DistRow(i-lo), ws.msbfs.SigmaRow(i-lo)
			} else {
				ws.pdist, ws.psigma, ws.porder = a.ProductCountsInto(
					ws.pdist, ws.psigma, ws.porder, sources[i])
				dist, sigma = ws.pdist, ws.psigma
			}
			// Per-node policy distance = min over states; ascending targets
			// keep each source's entries (t)-sorted.
			for ti, t := range sources {
				pdist := graph.Unreached
				for s := 0; s < ns; s++ {
					pdist = min(pdist, dist[int(t)*ns+s])
				}
				if ti == i || pdist == graph.Unreached || pdist == 0 {
					continue
				}
				sweepPolicyTarget(a, t, int(pdist), dist, sigma, ix, ws, uint32(i), uint32(ti))
			}
		}
	})
	defer run.release()
	values := run.cover(m, len(sources), &opts)
	return &Result{Edges: g.Edges(), Values: values, N: len(sources), Nodes: n}
}

// sweepPolicyTarget walks the product-space shortest-path ancestor DAG of
// target t, distributing path fractions over the optimal arrival states and
// aggregating per underlying edge (a product sweep can cross the same graph
// edge in several states), then emits one entry per edge for the pair
// (ui, ti) of sample indices. The per-edge aggregation runs on the leased
// scratch's dense accumulators (localW, reset through localE) instead of a
// per-target map.
func sweepPolicyTarget(a *policy.Annotated, t int32, pdist int,
	dist []int32, sigma []float64, ix *graph.EdgeIndex,
	ws *sweepScratch, ui, ti uint32) {

	g := a.G
	ns := policy.NumStates
	bs := ws.levelBuckets(pdist)
	ws.touched = ws.touched[:0]
	ws.localE = ws.localE[:0]
	// Seed the optimal arrival states proportionally to their path counts.
	totalSigma := 0.0
	for s := 0; s < ns; s++ {
		st := int(t)*ns + s
		if int(dist[st]) == pdist {
			totalSigma += sigma[st]
		}
	}
	if totalSigma == 0 {
		return
	}
	for s := 0; s < ns; s++ {
		st := int(t)*ns + s
		if int(dist[st]) == pdist && sigma[st] > 0 {
			ws.gval[st] = sigma[st] / totalSigma
			ws.touched = append(ws.touched, int32(st))
			bs[pdist] = append(bs[pdist], int32(st))
		}
	}
	for d := pdist; d >= 1; d-- {
		for _, stRaw := range bs[d] {
			st := int(stRaw)
			b := int32(st / ns)
			sb := st % ns
			gb := ws.gval[st]
			for _, av := range g.Neighbors(b) {
				// Predecessor states (av, sa) with a valid transition into sb.
				for sa := 0; sa < ns; sa++ {
					sat := int(av)*ns + sa
					if dist[sat] != int32(d-1) || sigma[sat] == 0 {
						continue
					}
					if a.Transition(av, b, sa) != sb {
						continue
					}
					frac := gb * sigma[sat] / sigma[st]
					id := uint32(ix.ID(av, b))
					if ws.localW[id] == 0 {
						ws.localE = append(ws.localE, id)
					}
					ws.localW[id] += frac
					if ws.gval[sat] == 0 {
						ws.touched = append(ws.touched, int32(sat))
						if d-1 >= 1 {
							bs[d-1] = append(bs[d-1], int32(sat))
						}
					}
					ws.gval[sat] += frac
				}
			}
		}
	}
	for _, st := range ws.touched {
		ws.gval[st] = 0
	}
	for _, e := range ws.localE {
		ws.store.add(e, ui, ti, ws.localW[e])
		ws.localW[e] = 0
	}
}
