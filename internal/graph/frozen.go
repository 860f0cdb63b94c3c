package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Frozen is a read-optimized compressed-sparse-row (CSR) snapshot of a
// Graph. Neighbor lists are flat []int32/[]float64 arrays sorted by
// neighbor ID, so iteration order — and therefore every tie-break taken by
// the kernels below — is deterministic and independent of the insertion
// order that built the Graph.
//
// A Frozen view never changes: mutating the source Graph after Freeze
// leaves existing views intact (they describe the pre-mutation graph) and
// invalidates the Graph's cached view, so the next Graph.Frozen() call
// re-freezes. All methods are safe for concurrent use; the per-view
// sync.Pool recycles Dijkstra scratch (heap, positions) across goroutines,
// making repeated shortest-path calls allocation-free apart from the
// returned rows.
type Frozen struct {
	off []int32   // off[u]..off[u+1] indexes nbr/wt; len n+1
	nbr []int32   // concatenated sorted neighbor lists; len 2m
	wt  []float64 // weights parallel to nbr
	m   int       // undirected edge count

	scratch sync.Pool // *fscratch
}

// fscratch is the per-goroutine working set of one Dijkstra run: an indexed
// 4-ary heap (vertex IDs keyed by the current tentative distance) plus each
// vertex's heap position. dist is used only by kernels that do not write
// into a caller-supplied buffer.
type fscratch struct {
	heap []int32
	pos  []int32 // heap index of each vertex, -1 if absent or settled
	dist []float64
}

// Freeze builds a CSR snapshot of the graph's current state. The snapshot
// is immutable; prefer Graph.Frozen() when the graph is static, which
// caches the view across calls.
func (g *Graph) Freeze() *Frozen {
	n := len(g.adj)
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: cannot freeze %d vertices into int32 CSR", n))
	}
	// off/nbr indices are int32 and nbr holds both directions of every edge,
	// so the directed arc count 2m must fit too — possible to exceed even
	// with n well under MaxInt32.
	if g.m > math.MaxInt32/2 {
		panic(fmt.Sprintf("graph: cannot freeze %d edges (2m arcs) into int32 CSR", g.m))
	}
	f := &Frozen{
		off: make([]int32, n+1),
		nbr: make([]int32, 2*g.m),
		wt:  make([]float64, 2*g.m),
		m:   g.m,
	}
	for u := 0; u < n; u++ {
		f.off[u+1] = f.off[u] + int32(len(g.adj[u]))
	}
	// Adjacency lists are already sorted by neighbor ID, so CSR rows are a
	// straight copy.
	for u := 0; u < n; u++ {
		lo := f.off[u]
		for i, e := range g.adj[u] {
			f.nbr[int(lo)+i] = int32(e.to)
			f.wt[int(lo)+i] = e.w
		}
	}
	f.scratch.New = func() interface{} {
		return &fscratch{
			heap: make([]int32, 0, n),
			pos:  make([]int32, n),
			dist: make([]float64, n),
		}
	}
	return f
}

// Frozen returns the cached CSR view of the graph, freezing on first use.
// Any mutation (AddVertex, AddEdge, RemoveEdge) invalidates the cache; the
// next call re-freezes. Concurrent callers may race to build the first
// view, in which case they build identical snapshots and one wins — reads
// are always consistent because views are immutable.
func (g *Graph) Frozen() *Frozen {
	if f := g.frozen.Load(); f != nil {
		return f
	}
	f := g.Freeze()
	g.frozen.Store(f)
	return f
}

// invalidateFrozen drops the cached CSR view; every mutating method calls it.
func (g *Graph) invalidateFrozen() {
	if g.frozen.Load() != nil {
		g.frozen.Store(nil)
	}
}

// frozenCache wraps the atomic pointer so Graph literals stay constructible
// elsewhere in the package without naming the atomic type.
type frozenCache = atomic.Pointer[Frozen]

// NumVertices reports the vertex count of the snapshot.
func (f *Frozen) NumVertices() int { return len(f.off) - 1 }

// NumEdges reports the undirected edge count of the snapshot.
func (f *Frozen) NumEdges() int { return f.m }

// Degree returns the degree of vertex u (0 when out of range).
func (f *Frozen) Degree(u int) int {
	if u < 0 || u >= f.NumVertices() {
		return 0
	}
	return int(f.off[u+1] - f.off[u])
}

// Row returns u's neighbor IDs and edge weights as shared slices in
// ascending neighbor order. Callers must not mutate them.
func (f *Frozen) Row(u int) ([]int32, []float64) {
	if u < 0 || u >= f.NumVertices() {
		return nil, nil
	}
	lo, hi := f.off[u], f.off[u+1]
	return f.nbr[lo:hi], f.wt[lo:hi]
}

// DegreeSequence returns the sorted multiset of vertex degrees.
func (f *Frozen) DegreeSequence() []int {
	n := f.NumVertices()
	ds := make([]int, n)
	for u := 0; u < n; u++ {
		ds[u] = int(f.off[u+1] - f.off[u])
	}
	sort.Ints(ds)
	return ds
}

// ShortestPaths computes single-source shortest path distances from src
// using Dijkstra over the CSR rows with an indexed 4-ary heap. Unreachable
// vertices get +Inf. The only allocation is the returned slice.
func (f *Frozen) ShortestPaths(src int) []float64 {
	dist := make([]float64, f.NumVertices())
	f.ShortestPathsInto(src, dist)
	return dist
}

// ShortestPathsInto is ShortestPaths writing into dist, which must have
// length NumVertices(). It performs no allocations once the scratch pool is
// warm, making it the kernel of choice for all-sources sweeps.
func (f *Frozen) ShortestPathsInto(src int, dist []float64) {
	if len(dist) != f.NumVertices() {
		panic(fmt.Sprintf("graph: ShortestPathsInto buffer length %d, want %d", len(dist), f.NumVertices()))
	}
	s := f.scratch.Get().(*fscratch)
	f.dijkstra(src, dist, nil, s)
	f.scratch.Put(s)
}

// ShortestPathsF32Into is ShortestPathsInto with a float32 destination row
// — the memory-bounded oracle's storage format. Distances are computed in
// float64 and rounded once on store, so results are deterministic.
func (f *Frozen) ShortestPathsF32Into(src int, dist []float32) {
	n := f.NumVertices()
	if len(dist) != n {
		panic(fmt.Sprintf("graph: ShortestPathsF32Into buffer length %d, want %d", len(dist), n))
	}
	s := f.scratch.Get().(*fscratch)
	f.dijkstra(src, s.dist, nil, s)
	for i, d := range s.dist {
		dist[i] = float32(d)
	}
	f.scratch.Put(s)
}

// ShortestPathTree computes distances plus the predecessor of each vertex
// on the shortest path from src. Because CSR neighbor order is sorted, the
// predecessor choice between equal-length paths is deterministic.
func (f *Frozen) ShortestPathTree(src int) (dist []float64, prev []int) {
	n := f.NumVertices()
	dist = make([]float64, n)
	prev = make([]int, n)
	s := f.scratch.Get().(*fscratch)
	f.dijkstra(src, dist, prev, s)
	f.scratch.Put(s)
	return dist, prev
}

// dijkstra runs the kernel: dist (len n) receives distances, prev (len n or
// nil) receives tree predecessors, s supplies the heap. The heap holds each
// vertex at most once (decrease-key via sift-up), so it never exceeds n and
// no stale entries are popped.
func (f *Frozen) dijkstra(src int, dist []float64, prev []int, s *fscratch) {
	n := f.NumVertices()
	for i := range dist {
		dist[i] = Inf
	}
	for i := range prev {
		prev[i] = -1
	}
	if src < 0 || src >= n {
		return
	}
	pos := s.pos
	for i := range pos {
		pos[i] = -1
	}
	heap := s.heap[:0]
	dist[src] = 0
	heap = HeapPush(heap, pos, dist, int32(src))
	for len(heap) > 0 {
		u := heap[0]
		heap = HeapPopMin(heap, pos, dist)
		du := dist[u]
		lo, hi := f.off[u], f.off[u+1]
		for i := lo; i < hi; i++ {
			v := f.nbr[i]
			nd := du + f.wt[i]
			if nd < dist[v] {
				dist[v] = nd
				if prev != nil {
					prev[v] = int(u)
				}
				if pos[v] < 0 {
					heap = HeapPush(heap, pos, dist, v)
				} else {
					HeapSiftUp(heap, pos, dist, pos[v])
				}
			}
		}
	}
	s.heap = heap[:0]
}

// The indexed 4-ary min-heap, shared by the CSR kernel above and the
// overlay flood kernels: heap holds vertex IDs ordered by dist, pos maps
// vertex → heap index (-1 when absent). Flat arrays and direct comparisons
// avoid the interface boxing of container/heap (one allocation per push
// there).

// HeapPush inserts v, whose key dist[v] is already set, into the indexed
// heap and returns the grown heap slice. v must not already be in the heap.
func HeapPush(heap []int32, pos []int32, dist []float64, v int32) []int32 {
	heap = append(heap, v)
	pos[v] = int32(len(heap) - 1)
	HeapSiftUp(heap, pos, dist, pos[v])
	return heap
}

// HeapPopMin removes the root (the minimum-distance vertex, which the
// caller reads as heap[0] beforehand), marks it absent in pos, and returns
// the shrunk heap slice. The heap must be non-empty.
func HeapPopMin(heap []int32, pos []int32, dist []float64) []int32 {
	root := heap[0]
	pos[root] = -1
	last := heap[len(heap)-1]
	heap = heap[:len(heap)-1]
	if len(heap) > 0 {
		heap[0] = last
		pos[last] = 0
		heapSiftDown(heap, pos, dist, 0)
	}
	return heap
}

// HeapSiftUp restores heap order after the key of the entry at heap index
// i decreased — the decrease-key step of Dijkstra: callers lower dist[v]
// and then call HeapSiftUp(heap, pos, dist, pos[v]).
func HeapSiftUp(heap []int32, pos []int32, dist []float64, i int32) {
	v := heap[i]
	d := dist[v]
	for i > 0 {
		parent := (i - 1) / 4
		p := heap[parent]
		if dist[p] <= d {
			break
		}
		heap[i] = p
		pos[p] = i
		i = parent
	}
	heap[i] = v
	pos[v] = i
}

func heapSiftDown(heap []int32, pos []int32, dist []float64, i int32) {
	n := int32(len(heap))
	v := heap[i]
	d := dist[v]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		minD := dist[heap[first]]
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if cd := dist[heap[c]]; cd < minD {
				min, minD = c, cd
			}
		}
		if minD >= d {
			break
		}
		heap[i] = heap[min]
		pos[heap[i]] = i
		i = min
	}
	heap[i] = v
	pos[v] = i
}

// Component returns the vertices reachable from start (including start) in
// BFS discovery order. Sorted CSR rows make the order deterministic.
func (f *Frozen) Component(start int) []int {
	n := f.NumVertices()
	if start < 0 || start >= n {
		return nil
	}
	visited := make([]bool, n)
	queue := make([]int32, 1, n)
	queue[0] = int32(start)
	visited[start] = true
	order := make([]int, 0, n)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		order = append(order, int(u))
		for i := f.off[u]; i < f.off[u+1]; i++ {
			if v := f.nbr[i]; !visited[v] {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	return order
}

// Connected reports whether the snapshot is connected (trivially true for
// empty and single-vertex graphs).
func (f *Frozen) Connected() bool {
	n := f.NumVertices()
	if n <= 1 {
		return true
	}
	return len(f.Component(0)) == n
}

// ComponentCount returns the number of connected components.
func (f *Frozen) ComponentCount() int {
	n := f.NumVertices()
	visited := make([]bool, n)
	stack := make([]int32, 0, n)
	count := 0
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		count++
		visited[s] = true
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for i := f.off[u]; i < f.off[u+1]; i++ {
				if v := f.nbr[i]; !visited[v] {
					visited[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return count
}

// HopDistance returns the unweighted hop count from u to v, or -1 if v is
// unreachable.
func (f *Frozen) HopDistance(u, v int) int {
	n := f.NumVertices()
	if u < 0 || v < 0 || u >= n || v >= n {
		return -1
	}
	if u == v {
		return 0
	}
	hops := make([]int32, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[u] = 0
	queue := make([]int32, 1, n)
	queue[0] = int32(u)
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for i := f.off[x]; i < f.off[x+1]; i++ {
			y := f.nbr[i]
			if hops[y] < 0 {
				hops[y] = hops[x] + 1
				if int(y) == v {
					return int(hops[y])
				}
				queue = append(queue, y)
			}
		}
	}
	return -1
}
