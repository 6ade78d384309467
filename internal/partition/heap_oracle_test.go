package partition

// The historical Fiduccia–Mattheyses refiner, kept as the oracle of the
// gain-bucket queue: a lazy binary heap (a typed port of container/heap's
// sift algorithms) holding (node, gain) entries, with stale entries
// discarded on pop. TestBucketRefineMatchesHeap and FuzzRefineMatchesHeap
// hold refine to the exact side assignment this implementation produces.

// moveCand is a heap entry: a candidate node move with the gain it had when
// pushed. Entries go stale when neighboring moves change the gain; stale
// entries are discarded lazily on pop. Ties break on node id so refinement
// is deterministic.
type moveCand struct {
	v    int32
	gain int
}

func gainLess(h []moveCand, i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].v < h[j].v
}

func gainDown(h []moveCand, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && gainLess(h, j2, j1) {
			j = j2
		}
		if !gainLess(h, j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func gainUp(h []moveCand, j int) {
	for {
		i := (j - 1) / 2
		if i == j || !gainLess(h, j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// heapRefine is the historical refine: the same passes, balance rule and
// best-prefix rollback, driven by the lazy heap. It allocates its own
// buffers, so it shares no state with a Workspace.
func heapRefine(l *level, side []bool, opts *Options) {
	n := l.numNodes()
	total := l.totalNodeW()
	maxSide := int(opts.Balance * float64(total))
	if maxSide*2 < total {
		maxSide = (total + 1) / 2
	}
	gain := make([]int, n)
	moved := make([]bool, n)
	var h []moveCand
	var history []int32
	for pass := 0; pass < opts.Refinements; pass++ {
		weightTrue := 0
		for v := 0; v < n; v++ {
			if side[v] {
				weightTrue += int(l.nodeW[v])
			}
		}
		for v := int32(0); v < int32(n); v++ {
			g := 0
			for _, e := range l.edgesOf(v) {
				if side[e.to] == side[v] {
					g -= int(e.w)
				} else {
					g += int(e.w)
				}
			}
			gain[v] = g
		}
		h = h[:0]
		for v := int32(0); v < int32(n); v++ {
			h = append(h, moveCand{v, gain[v]})
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			gainDown(h, i, len(h))
		}
		for i := range moved {
			moved[i] = false
		}
		history = history[:0]
		cumGain, bestGain, bestPrefix := 0, 0, 0
		for len(h) > 0 {
			last := len(h) - 1
			h[0], h[last] = h[last], h[0]
			gainDown(h, 0, last)
			c := h[last]
			h = h[:last]
			v := c.v
			if moved[v] || c.gain != gain[v] {
				continue
			}
			var newTrue int
			if side[v] {
				newTrue = weightTrue - int(l.nodeW[v])
			} else {
				newTrue = weightTrue + int(l.nodeW[v])
			}
			if newTrue > maxSide || total-newTrue > maxSide {
				continue
			}
			weightTrue = newTrue
			side[v] = !side[v]
			moved[v] = true
			history = append(history, v)
			cumGain += gain[v]
			gain[v] = -gain[v]
			if cumGain > bestGain {
				bestGain = cumGain
				bestPrefix = len(history)
			}
			for _, e := range l.edgesOf(v) {
				if moved[e.to] {
					continue
				}
				if side[e.to] == side[v] {
					gain[e.to] -= 2 * int(e.w)
				} else {
					gain[e.to] += 2 * int(e.w)
				}
				h = append(h, moveCand{e.to, gain[e.to]})
				gainUp(h, len(h)-1)
			}
		}
		// Roll back moves beyond the best prefix.
		for i := len(history) - 1; i >= bestPrefix; i-- {
			side[history[i]] = !side[history[i]]
		}
		if bestGain == 0 {
			break
		}
	}
}
