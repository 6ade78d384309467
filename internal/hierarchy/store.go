package hierarchy

import (
	"math/bits"
	"sync"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
)

// entry is one (source, target) pair crossing an edge, with the fraction
// of the pair's shortest paths that do so. The edge is implicit in the
// store bucket holding the entry, up to its offset inside the bucket, which
// rides in te's top bits above the target. u and t are sample indices
// (positions in the ascending source list), so they order exactly as the
// node ids do.
type entry struct {
	u  uint32
	te uint32
	w  float64
}

// coverEntry is one entry inside a single edge's group, with the edge and
// its bucket offset stripped.
type coverEntry struct {
	u, t int32
	w    float64
}

// chunkLen is the entry store's allocation unit in entries (16 KiB).
const chunkLen = 1024

type entryChunk [chunkLen]entry

// chunkFree is the free list every entry store draws its chunks from and
// returns them to once the values are covered: a warm call allocates no
// entry storage, and the chunks are never grown or copied. It keeps the
// largest concurrent demand for the life of the process, as the pooled
// sweep workspaces do, so repeated suites do not refault it.
var chunkFree struct {
	sync.Mutex
	list []*entryChunk
}

func takeChunk() *entryChunk {
	chunkFree.Lock()
	defer chunkFree.Unlock()
	if k := len(chunkFree.list); k > 0 {
		c := chunkFree.list[k-1]
		chunkFree.list = chunkFree.list[:k-1]
		return c
	}
	return new(entryChunk)
}

// bucketShift sizes the store's edge buckets: 32 edges per bucket, widened
// on big graphs so a store always has fewer than 1024 buckets — each
// touched bucket pins one partly filled chunk, so the bucket count bounds
// the store's slack — and narrowed only if the sample index would not
// otherwise fit beside the offset. Buckets keep the emission's write
// streams few and sequential while staying small enough that one bucket's
// entries sort and cover in cache.
func bucketShift(numEdges, numSamples int) uint32 {
	return uint32(min(max(5, bits.Len(uint(numEdges>>10))), 32-bits.Len(uint(numSamples))))
}

// entryStore is one worker's pair entries, radix-partitioned by edge
// bucket as they are emitted: each entry is appended to its bucket's chunk
// chain, so the cover pass reads one bucket at a time and never
// materializes a global entry log or sorts it. A worker sweeps its sources
// in ascending order and each source's targets in ascending order, so every
// chain is (u, t)-sorted per edge.
type entryStore struct {
	shift uint32 // edges per bucket = 1 << shift
	tbits uint32 // te = offset<<tbits | t
	// Per bucket: the chain in fill order, its last chunk, and that chunk's
	// fill — chunkLen when the chain is empty, so the first add opens one.
	chains [][]*entryChunk
	tail   []*entryChunk
	fill   []uint32
}

func (st *entryStore) reset(numEdges, numSamples int) {
	st.shift = bucketShift(numEdges, numSamples)
	st.tbits = 32 - st.shift
	nb := numEdges>>st.shift + 1
	if cap(st.chains) < nb {
		st.chains = make([][]*entryChunk, nb)
		st.tail = make([]*entryChunk, nb)
		st.fill = make([]uint32, nb)
	}
	st.chains, st.tail, st.fill = st.chains[:nb], st.tail[:nb], st.fill[:nb]
	for b := range st.fill {
		st.fill[b] = chunkLen
	}
}

// add appends the entry (e, u, t, w) to e's bucket. The hot walk
// open-codes it as pack + push, which inline, with grow on the rare full
// tail.
func (st *entryStore) add(e, u, t uint32, w float64) {
	if b, x := st.pack(e, u, t, w); !st.push(b, x) {
		st.grow(b, x)
	}
}

// pack returns e's bucket and the entry (e, u, t, w) in stored form.
func (st *entryStore) pack(e, u, t uint32, w float64) (uint32, entry) {
	return e >> st.shift, entry{u: u, te: (e&(1<<st.shift-1))<<st.tbits | t, w: w}
}

// push appends x to bucket b's tail chunk, reporting false when the tail
// is full or absent.
func (st *entryStore) push(b uint32, x entry) bool {
	f := st.fill[b]
	if f >= chunkLen {
		return false
	}
	st.tail[b][f] = x
	st.fill[b] = f + 1
	return true
}

// grow opens a new tail chunk for bucket b with x as its first entry.
func (st *entryStore) grow(b uint32, x entry) {
	c := takeChunk()
	c[0] = x
	st.chains[b] = append(st.chains[b], c)
	st.tail[b], st.fill[b] = c, 1
}

// segments calls fn on bucket b's filled chunk prefixes in fill order.
func (st *entryStore) segments(b int, fn func([]entry)) {
	chain := st.chains[b]
	for i, c := range chain {
		if i == len(chain)-1 {
			fn(c[:st.fill[b]])
		} else {
			fn(c[:])
		}
	}
}

// release returns the store's chunks to the free list.
func (st *entryStore) release() {
	chunkFree.Lock()
	defer chunkFree.Unlock()
	for b, chain := range st.chains {
		chunkFree.list = append(chunkFree.list, chain...)
		clear(chain)
		st.chains[b] = chain[:0]
	}
	clear(st.tail)
}

// sweepRun is one call's leased worker scratches, each holding the entry
// store its worker filled.
type sweepRun struct {
	wss []*sweepScratch
}

// runSweeps fans the sources out over workers in units — mask strips of
// width sources on the batched route, single sources on the scalar one
// (width 0) — worker w taking units w, w+workers, ... in ascending order,
// so each worker's store holds its sources in ascending sample index: the
// one property the cover's merge relies on. sweep(ws, lo, hi) walks
// sources[lo:hi] into ws.store.
func runSweeps(numSources, width, workers, numEdges int, sweep func(ws *sweepScratch, lo, hi int)) sweepRun {
	unit := max(width, 1)
	units := (numSources + unit - 1) / unit
	run := sweepRun{wss: make([]*sweepScratch, workers)}
	var wg sync.WaitGroup
	for w := range workers {
		ws := sweepPool.Get()
		ws.store.reset(numEdges, numSources)
		if width > 0 && ws.msbfs == nil {
			ws.msbfs = graph.NewMSBFSScratch()
		}
		run.wss[w] = ws
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < units; k += workers {
				lo := k * unit
				sweep(ws, lo, min(lo+unit, numSources))
			}
		}()
	}
	wg.Wait()
	return run
}

// release returns the chunks and the scratches.
func (r sweepRun) release() {
	for _, ws := range r.wss {
		ws.store.release()
		sweepPool.Put(ws)
	}
}

// bucketLen returns the number of bucket-b entries across the stores.
func (r sweepRun) bucketLen(b int) int {
	total := 0
	for _, ws := range r.wss {
		if k := len(ws.store.chains[b]); k > 0 {
			total += (k-1)*chunkLen + int(ws.store.fill[b])
		}
	}
	return total
}

// countBucket sets end[o+1] to the number of bucket-b entries at offset o
// (end[0] = 0).
func (r sweepRun) countBucket(b int, end []int32) {
	clear(end)
	tbits := r.wss[0].store.tbits
	for _, ws := range r.wss {
		ws.store.segments(b, func(seg []entry) {
			for i := range seg {
				end[seg[i].te>>tbits+1]++
			}
		})
	}
}

// groupSizes returns every edge's entry count — its traversal-set size,
// since an edge appears at most once per pair.
func (r sweepRun) groupSizes(numEdges int) []int {
	st := &r.wss[0].store
	be := 1 << st.shift
	end := make([]int32, be+1)
	counts := make([]int, numEdges)
	for b := range st.chains {
		r.countBucket(b, end)
		for o := 0; o < be && b*be+o < numEdges; o++ {
			counts[b*be+o] = int(end[o+1])
		}
	}
	return counts
}

// chainReader reads one store's chain for a bucket in fill order.
type chainReader struct {
	chain []*entryChunk
	last  uint32  // fill of the chain's last chunk
	seg   []entry // unread rest of the current chunk; empty when exhausted
}

func (c *chainReader) open(st *entryStore, b int) {
	c.chain, c.last, c.seg = st.chains[b], st.fill[b], nil
	c.advance()
}

func (c *chainReader) advance() {
	switch len(c.chain) {
	case 0:
		c.seg = nil
	case 1:
		c.seg = c.chain[0][:c.last]
		c.chain = nil
	default:
		c.seg = c.chain[0][:]
		c.chain = c.chain[1:]
	}
}

// cover computes every edge's link value from the workers' stores, one
// bucket at a time: the bucket's entries are merged across workers by
// source index (each chain is source-ascending, and a source lives in one
// worker's store) and counting-sorted by edge offset into a cache-resident
// buffer. The sort is stable, so each edge's group arrives in canonical
// (u, t) order — the order the order-dependent primal-dual needs — at every
// worker count. Sample indices stand in for node ids throughout the cover.
func (r sweepRun) cover(numEdges, numSamples int, opts *Options) []float64 {
	cs := coverPool.Get()
	defer coverPool.Put(cs)
	cs.ensure(numSamples)
	st := &r.wss[0].store
	be := 1 << st.shift
	tmask := uint32(1)<<st.tbits - 1
	cs.end = growI32(cs.end, be+1)
	end := cs.end
	values := make([]float64, numEdges)
	entries, largest := 0, 0
	for b := range st.chains {
		k := r.bucketLen(b)
		entries, largest = entries+k, max(largest, k)
	}
	if cap(cs.sorted) < largest {
		cs.sorted = make([]coverEntry, largest)
	}
	for b := range st.chains {
		total := r.bucketLen(b)
		if total == 0 {
			continue
		}
		r.countBucket(b, end)
		for o := 0; o < be; o++ {
			end[o+1] += end[o]
		}
		sorted := cs.sorted[:total]
		rd := cs.readers[:0]
		for _, ws := range r.wss {
			rd = append(rd, chainReader{})
			rd[len(rd)-1].open(&ws.store, b)
		}
		cs.readers = rd
		for {
			best := -1
			for i := range rd {
				if len(rd[i].seg) > 0 && (best < 0 || rd[i].seg[0].u < rd[best].seg[0].u) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			c := &rd[best]
			for u := c.seg[0].u; len(c.seg) > 0 && c.seg[0].u == u; {
				x := &c.seg[0]
				o := x.te >> st.tbits
				sorted[end[o]] = coverEntry{u: int32(x.u), t: int32(x.te & tmask), w: x.w}
				end[o]++
				if c.seg = c.seg[1:]; len(c.seg) == 0 {
					c.advance()
				}
			}
		}
		clear(rd) // drop the chain references before the scratch is pooled
		// end[o] now ends group o (the scatter advanced each slot to its
		// successor's start).
		start := int32(0)
		for o := 0; o < be; o++ {
			if group := sorted[start:end[o]]; len(group) > 0 {
				values[b*be+o] = edgeCover(group, cs)
			}
			start = end[o]
		}
	}
	opts.Metrics.Counter("hierarchy.pair_entries").Add(int64(entries))
	return values
}

// coverScratch is the vertex-cover workspace: sample-indexed accumulators
// reset through the group's node list, so one edge's cover costs O(pairs)
// with no hashing. Leased through the unified ball.Pool layer.
type coverScratch struct {
	sum      []float64
	weight   []float64
	residual []float64
	cnt      []int32
	localIdx []int32
	inCover  []bool

	nodes      []int32 // distinct nodes of the current group, first-touch order
	coverOrder []int32
	plists     [][]int32 // per-cover-slot partner lists (capacities persist)

	// The bucket sort's buffers: group ends, the sorted bucket, and the
	// per-worker chain readers.
	end     []int32
	sorted  []coverEntry
	readers []chainReader
}

var coverPool = ball.NewPool(func() *coverScratch { return &coverScratch{} })

func (ws *coverScratch) ensure(n int) {
	if len(ws.sum) < n {
		ws.sum = make([]float64, n)
		ws.weight = make([]float64, n)
		ws.residual = make([]float64, n)
		ws.cnt = make([]int32, n)
		ws.localIdx = make([]int32, n)
		ws.inCover = make([]bool, n)
	}
}

// edgeCover computes one edge's link value from its canonically ordered
// pair entries: the primal-dual (local-ratio) weighted vertex cover of the
// traversal-set bipartite graph, followed by a reverse-order redundancy
// prune that removes cover nodes whose pairs are all covered by other cover
// nodes (without the prune, ties double access-link values). Every float
// accumulation runs in the entries' canonical order, so the value is
// bit-deterministic across runs and worker counts.
func edgeCover(pairs []coverEntry, ws *coverScratch) float64 {
	nodes := ws.nodes[:0]
	for _, p := range pairs {
		if ws.cnt[p.u] == 0 {
			nodes = append(nodes, p.u)
		}
		ws.sum[p.u] += p.w
		ws.cnt[p.u]++
		if ws.cnt[p.t] == 0 {
			nodes = append(nodes, p.t)
		}
		ws.sum[p.t] += p.w
		ws.cnt[p.t]++
	}
	for _, v := range nodes {
		w := ws.sum[v] / float64(ws.cnt[v])
		ws.weight[v] = w
		ws.residual[v] = w
	}
	coverOrder := ws.coverOrder[:0]
	for _, p := range pairs {
		u, t := p.u, p.t
		if ws.inCover[u] || ws.inCover[t] {
			continue
		}
		ru, rt := ws.residual[u], ws.residual[t]
		m := ru
		if rt < m {
			m = rt
		}
		ws.residual[u] = ru - m
		ws.residual[t] = rt - m
		if ws.residual[u] <= 1e-12 {
			ws.inCover[u] = true
			coverOrder = append(coverOrder, u)
		}
		if t != u && ws.residual[t] <= 1e-12 {
			ws.inCover[t] = true
			coverOrder = append(coverOrder, t)
		}
	}
	// Redundancy prune. A lone cover node can never be removed — its
	// partners are by construction outside the cover — so the partner-list
	// machinery only runs for multi-node covers. Each cover node gets a
	// local slot with an append-grown partner list (slot capacities persist
	// across groups through the scratch), built in one pass over the pairs;
	// only cover nodes are slotted, so slot setup is O(|cover|), not
	// O(|nodes|).
	if len(coverOrder) > 1 {
		nc := len(coverOrder)
		for len(ws.plists) < nc {
			ws.plists = append(ws.plists, nil)
		}
		pl := ws.plists
		for i, v := range coverOrder {
			ws.localIdx[v] = int32(i)
			pl[i] = pl[i][:0]
		}
		for _, p := range pairs {
			if ws.inCover[p.u] {
				li := ws.localIdx[p.u]
				pl[li] = append(pl[li], p.t)
			}
			if ws.inCover[p.t] {
				li := ws.localIdx[p.t]
				pl[li] = append(pl[li], p.u)
			}
		}
		for i := nc - 1; i >= 0; i-- {
			removable := true
			for _, w := range pl[i] {
				if !ws.inCover[w] {
					removable = false
					break
				}
			}
			if removable {
				ws.inCover[coverOrder[i]] = false
			}
		}
	}
	// Sum in coverOrder (not node order) so the float accumulation matches
	// the cover construction exactly.
	value := 0.0
	for _, v := range coverOrder {
		if ws.inCover[v] {
			value += ws.weight[v]
		}
	}
	// Restore the zero-at-rest invariant for the next group.
	for _, v := range nodes {
		ws.sum[v] = 0
		ws.cnt[v] = 0
		ws.inCover[v] = false
	}
	ws.nodes = nodes
	ws.coverOrder = coverOrder
	return value
}
