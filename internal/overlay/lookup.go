package overlay

import (
	"math"

	"repro/internal/graph"
)

// ProcDelayFunc reports the processing delay in milliseconds a slot's host
// adds to every message it forwards or terminates. A nil function means
// zero delay everywhere. The Fig. 7 heterogeneity experiments plug in the
// bimodal model from internal/hetero.
type ProcDelayFunc func(slot int) float64

// floodScratch is the reusable working set of one slot-level Dijkstra: the
// tentative-distance array, an indexed 4-ary heap of slot IDs, and each
// slot's heap position. Recycled through a sync.Pool so concurrent lookup
// evaluators (metrics fans out one goroutine per worker) each reuse their
// own buffers, making flooding queries allocation-free after warm-up.
type floodScratch struct {
	dist []float64
	heap []int32
	pos  []int32
	mark []bool // affected-set marking for RepairFloodRow (repair.go)
}

// floodPool hands out scratch sized to at least n slots.
func (o *Overlay) floodGet() *floodScratch {
	n := len(o.hostOf)
	s, _ := o.floodPool.Get().(*floodScratch)
	if s == nil {
		s = &floodScratch{}
	}
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.pos = make([]int32, n)
		s.heap = make([]int32, 0, n)
		s.mark = make([]bool, n)
	}
	s.dist = s.dist[:n]
	s.pos = s.pos[:n]
	s.mark = s.mark[:n]
	return s
}

func (o *Overlay) floodPut(s *floodScratch) { o.floodPool.Put(s) }

// floodRun settles slots in nondecreasing first-arrival order from src.
// It stops early when dst (if >= 0) or any slot of targets (if non-nil) is
// settled, returning its arrival time; with no stop condition it computes
// the full arrival vector into s.dist and returns +Inf. Dead slots and
// unreachable slots keep +Inf.
//
// The heap compares by distance alone, yet the settle order — and with it
// the number of edge relaxations before an early exit — is deterministic:
// graph.Graph's sorted adjacency lists make VisitNeighbors, and therefore
// the heap's operation sequence, a pure function of the graph.
// Observability depends on this: oracle query counts feed the
// byte-deterministic metrics stream (DESIGN.md §8).
func (o *Overlay) floodRun(src int, proc ProcDelayFunc, s *floodScratch, dst int, targets map[int]bool) float64 {
	dist := s.dist
	pos := s.pos
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	for i := range pos {
		pos[i] = -1
	}
	heap := s.heap[:0]
	dist[src] = 0
	heap = graph.HeapPush(heap, pos, dist, int32(src))
	for len(heap) > 0 {
		u := int(heap[0])
		heap = graph.HeapPopMin(heap, pos, dist)
		if u == dst || (targets != nil && targets[u]) {
			s.heap = heap[:0]
			return dist[u]
		}
		du := dist[u]
		o.Logical.VisitNeighbors(u, func(nb int, _ float64) bool {
			if !o.Alive(nb) {
				return true
			}
			nd := du + o.lat(o.hostOf[u], o.hostOf[nb])
			if proc != nil {
				nd += proc(nb)
			}
			if nd < dist[nb] {
				dist[nb] = nd
				if pos[nb] < 0 {
					heap = graph.HeapPush(heap, pos, dist, int32(nb))
				} else {
					graph.HeapSiftUp(heap, pos, dist, pos[nb])
				}
			}
			return true
		})
	}
	s.heap = heap[:0]
	return math.Inf(1)
}

// FloodLatency returns the first-arrival latency of a flooded query from
// slot src to slot dst. Flooding explores every path, so the first copy to
// arrive travelled the latency-weighted shortest overlay path; computing
// that path is therefore exact, not an approximation. Each intermediate and
// terminal slot adds proc(slot) of processing delay (the source sends
// immediately). It returns +Inf if dst is unreachable from src.
func (o *Overlay) FloodLatency(src, dst int, proc ProcDelayFunc) float64 {
	if !o.Alive(src) || !o.Alive(dst) {
		return math.Inf(1)
	}
	if src == dst {
		return 0
	}
	s := o.floodGet()
	d := o.floodRun(src, proc, s, dst, nil)
	o.floodPut(s)
	return d
}

// FloodLatencyAny returns the first-arrival latency of a flooded query from
// src to the NEAREST of the dsts — the Gnutella file-search semantics,
// where any replica of the requested item satisfies the query. It returns
// +Inf when no destination is reachable (or the list is empty). A live src
// that is itself a destination costs 0.
func (o *Overlay) FloodLatencyAny(src int, dsts []int, proc ProcDelayFunc) float64 {
	if !o.Alive(src) || len(dsts) == 0 {
		return math.Inf(1)
	}
	targets := make(map[int]bool, len(dsts))
	for _, d := range dsts {
		if o.Alive(d) {
			targets[d] = true
		}
	}
	if len(targets) == 0 {
		return math.Inf(1)
	}
	if targets[src] {
		return 0
	}
	s := o.floodGet()
	d := o.floodRun(src, proc, s, -1, targets)
	o.floodPut(s)
	return d
}

// FloodLatenciesInto computes the first-arrival latency from src to EVERY
// slot in one pass — the bulk kernel behind exact all-pairs metrics, which
// turns an O(n²·Dijkstra) pair loop into O(n·Dijkstra). dist must have
// length NumSlots(); entry i receives the arrival time at slot i (+Inf for
// dead or unreachable slots, 0 for src). The slice is returned for
// convenience.
func (o *Overlay) FloodLatenciesInto(src int, proc ProcDelayFunc, dist []float64) []float64 {
	if len(dist) != len(o.hostOf) {
		panic("overlay: FloodLatenciesInto buffer length mismatch")
	}
	if !o.Alive(src) {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		return dist
	}
	s := o.floodGet()
	o.floodRun(src, proc, s, -1, nil)
	copy(dist, s.dist)
	o.floodPut(s)
	return dist
}
