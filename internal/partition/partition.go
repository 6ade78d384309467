// Package partition implements balanced graph bisection in the style of
// Karypis–Kumar multilevel partitioning ("A Fast and High Quality Multilevel
// Scheme for Partitioning Irregular Graphs", SISC 1998), the heuristic the
// paper uses ([25]) to compute its resilience metric: the minimum cut-set
// size of a balanced bi-partition.
//
// The pipeline is the classic three phases:
//
//  1. Coarsening by heavy-edge matching until the graph is small. Each
//     coarse level's adjacency is merged unsorted and then put in target
//     order by one counting transpose (the level is symmetric).
//  2. Initial bisection of the coarsest graph by greedy BFS region growing
//     from several seeds, keeping the best cut.
//  3. Uncoarsening with Fiduccia–Mattheyses refinement (hill climbing plus
//     negative-gain exploration with rollback to the best prefix) at each
//     level. Moves come from a gain-bucket queue: one bucket per gain in
//     [-D, +D], D the level's largest weighted degree, each a bitset over
//     node ids, so the highest gain pops first and the lowest id breaks
//     ties.
//
// All internal iteration orders are deterministic, so a fixed Options.Rand
// reproduces the same partition.
//
// The solver is allocation-free in steady state: every phase runs on a
// Workspace whose level arena (CSR-flattened weighted graphs, matching and
// side buffers, the FM gain buckets) is grown once and recycled across
// calls. Resilience partitions hundreds of thousands of ball subgraphs per
// suite, so hot paths hold a Workspace (one per worker — it is not safe for
// concurrent use) and call CutSizeWith / BisectWith; the package-level
// CutSize / Bisect wrappers build a throwaway Workspace per call.
package partition

import (
	"math/bits"
	"math/rand"
	"slices"

	"topocmp/internal/graph"
)

// wedge is a weighted adjacency entry.
type wedge struct {
	to int32
	w  int32
}

// level is one rung of the multilevel hierarchy: a CSR-flattened weighted
// graph (node weights count collapsed original vertices, edge weights count
// collapsed original edges; adjacency runs are sorted by target id for
// deterministic iteration), the cmap projecting this level's nodes onto the
// next-coarser level, and this level's side buffer. All slices are owned by
// the workspace and recycled across calls.
type level struct {
	nodeW []int32
	off   []int32
	adj   []wedge
	cmap  []int32
	side  []bool
	// maxWDeg is the largest weighted degree, which bounds every FM gain:
	// a node's gain is a signed sum of its edge weights.
	maxWDeg int
}

func (l *level) numNodes() int { return len(l.nodeW) }

func (l *level) edgesOf(v int32) []wedge { return l.adj[l.off[v]:l.off[v+1]] }

// gainBounds sizes the gain queue a level needs: one bucket per gain in
// [-maxWDeg, +maxWDeg], each ⌈n/64⌉ bitset words.
func (l *level) gainBounds() (buckets, words int) {
	return 2*l.maxWDeg + 1, (l.numNodes() + 63) >> 6
}

func (l *level) totalNodeW() int {
	t := 0
	for _, x := range l.nodeW {
		t += int(x)
	}
	return t
}

// fromGraph loads g into the level as the finest rung: unit node and edge
// weights, adjacency copied straight out of g's CSR (already sorted).
func (l *level) fromGraph(g *graph.Graph) {
	n := g.NumNodes()
	l.nodeW = growInt32(l.nodeW, n)
	for i := range l.nodeW {
		l.nodeW[i] = 1
	}
	l.off = growInt32(l.off, n+1)
	l.adj = growWedge(l.adj, 2*g.NumEdges())
	idx := int32(0)
	for v := int32(0); v < int32(n); v++ {
		l.off[v] = idx
		for _, u := range g.Neighbors(v) {
			l.adj[idx] = wedge{u, 1}
			idx++
		}
	}
	l.off[n] = idx
	l.maxWDeg = g.MaxDegree()
}

// Workspace holds every buffer the multilevel pipeline needs, grown on
// first use and recycled across calls, so steady-state bisection does not
// allocate. A Workspace is not safe for concurrent use; give each worker
// its own (the ball engine pools one per worker).
type Workspace struct {
	levels []*level

	perm    []int   // coarsening visit order (Fisher–Yates into a reused buffer)
	match   []int32 // heavy-edge matching partner
	memberA []int32 // finest member of each coarse node
	memberB []int32 // second member, -1 for unmatched singletons

	acc    graph.Stamp // coarse-adjacency merge liveness, one epoch per coarse node
	accPos []int32     // position of a stamped target in the open adjacency run
	runs   []wedge     // unsorted coarse adjacency runs, before the transpose

	visit graph.Stamp // region-growing visited marks, one epoch per seed
	queue []int32
	cand  []bool // candidate side assignment per region-growing seed

	gain    []int // FM gains
	moved   []bool
	history []int32
	moves   gainQueue
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// Options tunes the bisection.
type Options struct {
	// Balance is the maximum allowed share of total node weight on the
	// heavier side; the paper's "approximately n/2" corresponds to ~0.55.
	Balance float64
	// Seeds is the number of region-growing starts tried on the coarsest
	// graph.
	Seeds int
	// Refinements is the number of FM passes per uncoarsening level.
	Refinements int
	// Rand drives tie-breaking; nil uses a fixed seed.
	Rand *rand.Rand
}

func (o *Options) defaults() {
	if o.Balance == 0 {
		o.Balance = 0.55
	}
	if o.Seeds == 0 {
		o.Seeds = 4
	}
	if o.Refinements == 0 {
		o.Refinements = 4
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
}

// Bisect computes a balanced bipartition of g and returns the cut size (the
// number of edges crossing the partition) and the side assignment. Graphs
// with fewer than two nodes have cut 0. One-shot convenience over a
// throwaway Workspace; hot paths should hold a Workspace and call
// BisectWith.
func Bisect(g *graph.Graph, opts Options) (int, []bool) {
	return BisectWith(NewWorkspace(), g, opts)
}

// CutSize is a convenience wrapper returning only the cut value.
func CutSize(g *graph.Graph, opts Options) int {
	c, _ := bisect(NewWorkspace(), g, opts)
	return c
}

// BisectWith is Bisect running on ws's recycled buffers. The returned side
// slice is freshly allocated (it does not alias the workspace), so callers
// may retain it across further calls.
func BisectWith(ws *Workspace, g *graph.Graph, opts Options) (int, []bool) {
	cut, side := bisect(ws, g, opts)
	out := make([]bool, g.NumNodes())
	copy(out, side)
	return cut, out
}

// CutSizeWith is CutSize running on ws's recycled buffers; it performs no
// per-call allocation once the workspace is warm.
func CutSizeWith(ws *Workspace, g *graph.Graph, opts Options) int {
	c, _ := bisect(ws, g, opts)
	return c
}

// bisect runs the three phases; the returned side aliases workspace storage
// and is valid until the next call.
func bisect(ws *Workspace, g *graph.Graph, opts Options) (int, []bool) {
	opts.defaults()
	n := g.NumNodes()
	if n < 2 {
		l0 := ws.level0()
		l0.side = growBool(l0.side, n)
		for i := range l0.side {
			l0.side[i] = false
		}
		return 0, l0.side
	}
	const coarsestSize = 48
	l0 := ws.level0()
	l0.fromGraph(g)
	depth := 0
	cur := l0
	for cur.numNodes() > coarsestSize {
		next := ws.levelAt(depth + 1)
		ws.coarsen(cur, next, opts.Rand)
		if next.numNodes() >= cur.numNodes() {
			break // no progress
		}
		depth++
		cur = next
	}
	// Refinement runs coarsest level first; size the gain queue for the
	// widest level up front instead of regrowing it on the way down.
	maxBuckets, maxWords := 0, 0
	for _, lv := range ws.levels[:depth+1] {
		b, w := lv.gainBounds()
		maxBuckets, maxWords = max(maxBuckets, b), max(maxWords, b*w)
	}
	ws.moves.reserve(maxBuckets, maxWords)
	cur.side = growBool(cur.side, cur.numNodes())
	ws.initialBisection(cur, cur.side, &opts)
	ws.refine(cur, cur.side, &opts)
	for i := depth - 1; i >= 0; i-- {
		lv := ws.levels[i]
		lv.side = growBool(lv.side, lv.numNodes())
		for v := range lv.side {
			lv.side[v] = ws.levels[i+1].side[lv.cmap[v]]
		}
		ws.refine(lv, lv.side, &opts)
	}
	return cutOf(l0, l0.side), l0.side
}

func (ws *Workspace) level0() *level { return ws.levelAt(0) }

func (ws *Workspace) levelAt(i int) *level {
	for len(ws.levels) <= i {
		ws.levels = append(ws.levels, &level{})
	}
	return ws.levels[i]
}

// permInto refills ws.perm with opts.Rand.Perm(n) using the exact
// math/rand.Perm recurrence, so the RNG stream (and therefore every
// downstream tie-break) is bit-identical to the historical Perm call while
// reusing one buffer.
func (ws *Workspace) permInto(r *rand.Rand, n int) []int {
	if cap(ws.perm) < n {
		ws.perm = make([]int, n)
	}
	m := ws.perm[:n]
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// coarsen performs heavy-edge matching on fine (visit nodes in random
// order, match each unmatched node with its unmatched neighbor of heaviest
// edge weight, smallest id on ties) and contracts the matching into coarse.
func (ws *Workspace) coarsen(fine, coarse *level, r *rand.Rand) {
	n := fine.numNodes()
	ws.match = growInt32(ws.match, n)
	match := ws.match
	for i := range match {
		match[i] = -1
	}
	for _, ui := range ws.permInto(r, n) {
		u := int32(ui)
		if match[u] != -1 {
			continue
		}
		bestV, bestW := int32(-1), int32(-1)
		for _, e := range fine.edgesOf(u) {
			if match[e.to] == -1 && e.to != u && e.w > bestW {
				bestV, bestW = e.to, e.w
			}
		}
		if bestV >= 0 {
			match[u] = bestV
			match[bestV] = u
		} else {
			match[u] = u
		}
	}
	fine.cmap = growInt32(fine.cmap, n)
	cmap := fine.cmap
	for i := range cmap {
		cmap[i] = -1
	}
	ws.memberA = growInt32(ws.memberA, n)
	ws.memberB = growInt32(ws.memberB, n)
	next := int32(0)
	for u := int32(0); u < int32(n); u++ {
		if cmap[u] != -1 {
			continue
		}
		cmap[u] = next
		ws.memberA[next] = u
		ws.memberB[next] = -1
		if match[u] != u && match[u] >= 0 {
			cmap[match[u]] = next
			ws.memberB[next] = match[u]
		}
		next++
	}
	nc := int(next)

	// Contract: per coarse node, merge its members' neighbor runs with an
	// epoch-stamped accumulator into ws.runs, unsorted. The coarse graph is
	// symmetric with symmetric weights, so one counting transpose — scatter
	// each run's entries, sources in increasing order, into their targets'
	// runs — rebuilds the same graph with every run sorted by target id.
	coarse.nodeW = growInt32(coarse.nodeW, nc)
	for i := range coarse.nodeW[:nc] {
		coarse.nodeW[i] = 0
	}
	coarse.off = growInt32(coarse.off, nc+1)
	runs := ws.runs[:0]
	ws.accPos = growInt32(ws.accPos, nc)
	coarse.maxWDeg = 0
	for cu := int32(0); cu < next; cu++ {
		ws.acc.Begin(nc)
		start := len(runs)
		coarse.off[cu] = int32(start)
		wdeg := 0
		for _, u := range [2]int32{ws.memberA[cu], ws.memberB[cu]} {
			if u < 0 {
				continue
			}
			coarse.nodeW[cu] += fine.nodeW[u]
			for _, e := range fine.edgesOf(u) {
				cv := cmap[e.to]
				if cv == cu {
					continue
				}
				wdeg += int(e.w)
				if ws.acc.Visit(cv) {
					ws.accPos[cv] = int32(len(runs) - start)
					runs = append(runs, wedge{cv, e.w})
				} else {
					runs[start+int(ws.accPos[cv])].w += e.w
				}
			}
		}
		coarse.maxWDeg = max(coarse.maxWDeg, wdeg)
	}
	coarse.off[nc] = int32(len(runs))
	// Grown like append: balls of a sweep grow, and exact growth would
	// re-make every level's run store for each larger ball.
	coarse.adj = slices.Grow(coarse.adj[:0], len(runs))[:len(runs)]
	fill := ws.accPos[:nc]
	copy(fill, coarse.off[:nc])
	for cu := int32(0); cu < next; cu++ {
		for _, e := range runs[coarse.off[cu]:coarse.off[cu+1]] {
			coarse.adj[fill[e.to]] = wedge{cu, e.w}
			fill[e.to]++
		}
	}
	ws.runs = runs[:0]
}

// initialBisection grows a region by BFS from several random seeds and
// writes the assignment with the smallest cut into best.
func (ws *Workspace) initialBisection(l *level, best []bool, opts *Options) {
	n := l.numNodes()
	total := l.totalNodeW()
	ws.cand = growBool(ws.cand, n)
	bestCut := -1
	for s := 0; s < opts.Seeds; s++ {
		seed := int32(opts.Rand.Intn(n))
		ws.visit.Begin(n)
		cand := ws.cand
		for i := range cand {
			cand[i] = false
		}
		ws.queue = append(ws.queue[:0], seed)
		ws.visit.Visit(seed)
		grown := 0
		for head := 0; head < len(ws.queue) && grown*2 < total; head++ {
			u := ws.queue[head]
			cand[u] = true
			grown += int(l.nodeW[u])
			for _, e := range l.edgesOf(u) {
				if ws.visit.Visit(e.to) {
					ws.queue = append(ws.queue, e.to)
				}
			}
		}
		for v := int32(0); grown*2 < total && v < int32(n); v++ {
			if !cand[v] {
				cand[v] = true
				grown += int(l.nodeW[v])
			}
		}
		cut := cutOf(l, cand)
		if bestCut == -1 || cut < bestCut {
			bestCut = cut
			copy(best, cand)
		}
	}
}

// gainQueue is the FM move queue: one bucket per gain in [-maxGain,
// +maxGain], each a bitset over node ids, so a pop yields the highest gain
// and, within it, the lowest id — the strict (gain desc, id asc) order the
// historical lazy heap popped. A node is queued at most once, at its
// current gain; moving between buckets is two bit flips. Every pass drains
// the queue, so bits and count are all zero between passes and a new level
// reuses them under a new layout without clearing.
type gainQueue struct {
	words   int      // bitset words per bucket, ⌈n/64⌉
	maxGain int      // bucket b holds gain b-maxGain
	bits    []uint64 // bucket b is bits[b*words : (b+1)*words]
	count   []int32  // queued nodes per bucket
	low     []int32  // per occupied bucket, no set bit below this word
	top     int      // no bucket above top is occupied
	size    int
}

// reserve grows the queue's storage, only when it is short, to hold nb
// buckets of words bitset words in all. Fresh storage is zero, which keeps
// the all-zero invariant.
func (q *gainQueue) reserve(nb, words int) {
	if cap(q.bits) < words {
		q.bits = make([]uint64, words)
	}
	if cap(q.count) < nb {
		q.count = make([]int32, nb)
		q.low = make([]int32, nb)
	}
}

// reset lays the empty queue out for level l.
func (q *gainQueue) reset(l *level) {
	nb, words := l.gainBounds()
	q.reserve(nb, nb*words)
	q.words, q.maxGain = words, l.maxWDeg
	q.bits, q.count, q.low = q.bits[:nb*words], q.count[:nb], q.low[:nb]
	q.top = -1
}

func (q *gainQueue) push(v int32, gain int) {
	b := gain + q.maxGain
	w := v >> 6
	if q.count[b] == 0 || w < q.low[b] {
		q.low[b] = w
	}
	q.count[b]++
	q.bits[b*q.words+int(w)] |= 1 << (v & 63)
	q.top = max(q.top, b)
	q.size++
}

// remove takes v out of the bucket for gain if it is queued there.
func (q *gainQueue) remove(v int32, gain int) {
	b := gain + q.maxGain
	i, m := b*q.words+int(v>>6), uint64(1)<<(v&63)
	if q.bits[i]&m != 0 {
		q.bits[i] &^= m
		q.count[b]--
		q.size--
	}
}

// pop removes and returns the queued node with the highest gain, lowest id
// first among equal gains. The queue must not be empty.
func (q *gainQueue) pop() int32 {
	for q.count[q.top] == 0 {
		q.top--
	}
	b := q.top
	row := q.bits[b*q.words : (b+1)*q.words]
	w := q.low[b]
	for row[w] == 0 {
		w++
	}
	q.low[b] = w
	bit := bits.TrailingZeros64(row[w])
	row[w] &^= 1 << bit
	q.count[b]--
	q.size--
	return w<<6 + int32(bit)
}

// refine runs Fiduccia–Mattheyses passes: each pass tentatively moves every
// node once in best-gain-first order (negative gains included, balance
// respected), then rolls back to the prefix of moves with the smallest cut.
// A node refused for balance leaves the queue until a neighbor's move
// changes its gain; a moved node stays out for the rest of the pass.
func (ws *Workspace) refine(l *level, side []bool, opts *Options) {
	n := l.numNodes()
	total := l.totalNodeW()
	maxSide := int(opts.Balance * float64(total))
	if maxSide*2 < total {
		maxSide = (total + 1) / 2
	}
	ws.gain = growInt(ws.gain, n)
	ws.moved = growBool(ws.moved, n)
	gain, moved := ws.gain, ws.moved
	q := &ws.moves
	q.reset(l)
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
			q.push(v, g)
		}
		for i := range moved {
			moved[i] = false
		}
		history := ws.history[:0]
		cumGain, bestGain, bestPrefix := 0, 0, 0
		for q.size > 0 {
			v := q.pop()
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
				u := e.to
				if moved[u] {
					continue
				}
				q.remove(u, gain[u])
				if side[u] == side[v] {
					gain[u] -= 2 * int(e.w)
				} else {
					gain[u] += 2 * int(e.w)
				}
				q.push(u, gain[u])
			}
		}
		// Roll back moves beyond the best prefix.
		for i := len(history) - 1; i >= bestPrefix; i-- {
			side[history[i]] = !side[history[i]]
		}
		ws.history = history[:0]
		if bestGain == 0 {
			break
		}
	}
}

func cutOf(l *level, side []bool) int {
	cut := 0
	for u := int32(0); u < int32(l.numNodes()); u++ {
		for _, e := range l.edgesOf(u) {
			if u < e.to && side[u] != side[e.to] {
				cut += int(e.w)
			}
		}
	}
	return cut
}

// growInt32 returns buf resliced to length n, reallocating only when the
// capacity is short. Contents are unspecified.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

func growWedge(buf []wedge, n int) []wedge {
	if cap(buf) < n {
		return make([]wedge, n)
	}
	return buf[:n]
}
