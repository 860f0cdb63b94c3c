package netsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
)

// oracleInstr holds the observability hookup of one oracle (DESIGN.md §8).
// The pointer-to-struct indirection keeps the disabled path down to one
// predictable nil check on the Latency fast path.
type oracleInstr struct {
	// queries counts Latency point queries.
	queries *obs.Counter
	// hits counts point queries answered from an already-cached row.
	// Scheduling-dependent under concurrent warm-up (whichever row lands
	// first serves the symmetric pair), so it is excluded from the
	// byte-determinism contract; queries and computes are deterministic.
	hits *obs.Counter
	// computes counts Dijkstra row computations (cold misses + bounded-mode
	// recomputes after eviction).
	computes *obs.Counter
	// evictions counts bounded-mode row evictions.
	evictions *obs.Counter
}

// OracleOptions selects the oracle's row representation and memory policy.
// The zero value is the full-precision, unbounded mode every experiment
// defaults to (bit-identical results with the historical oracle).
type OracleOptions struct {
	// Float32 stores cached rows as float32 instead of float64, halving the
	// resident size of the distance cache. Latencies are computed in
	// float64 and rounded once on store, so results are deterministic; the
	// rounding error is bounded by one float32 ulp of the distance
	// (sub-microsecond at millisecond scale).
	Float32 bool
	// RowBudget caps the number of cached source rows; 0 means unbounded.
	// When the cache is full, admitting a new row deterministically evicts
	// the oldest admitted row (FIFO), so a full-scale ts-large run never
	// holds more than RowBudget·N distances at once. Evicted rows are
	// recomputed on demand.
	RowBudget int
}

// Oracle answers "what is the latency between physical nodes u and v?" — the
// question every PROP probe, every lookup, and every metric sample asks.
// In the authors' simulator a probe packet traverses the generated topology;
// here the equivalent is the shortest-path distance in the physical graph.
//
// Distances are computed lazily, one Dijkstra per source over the frozen
// CSR view of the physical graph, and cached. The cache is safe for
// concurrent use: parallel trial runners and the parallel metric evaluators
// all share one Oracle per network. Rows are published through atomic
// pointers, so the read path is lock-free in every mode; only admission
// and eviction in the memory-bounded mode take a lock.
type Oracle struct {
	fz    *graph.Frozen
	opt   OracleOptions
	instr *oracleInstr // nil unless SetInstruments was called

	rows   []atomic.Pointer[[]float64] // full-precision mode
	rows32 []atomic.Pointer[[]float32] // Float32 mode
	once   []sync.Once                 // unbounded mode: one Dijkstra per row
	cached atomic.Int64                // materialized row count, O(1) CachedRows

	// Bounded mode: mu guards admission/eviction; fifo is a fixed-capacity
	// ring buffer (len == RowBudget) holding the admission order of cached
	// rows, oldest at head. A ring keeps eviction O(1) without retaining a
	// dead prefix the way re-slicing an append-backed queue would.
	mu   sync.Mutex
	fifo []int32
	head int // ring index of the oldest admitted row
	live int // number of admitted rows in the ring
}

// precomputeSlots is a process-wide cap on extra Precompute workers so that
// concurrent Precompute calls — e.g. one per experiment trial — compose
// without spawning GOMAXPROCS² goroutines. Each call always makes progress
// on its own goroutine even when no slot is free.
var precomputeSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// NewOracle builds a full-precision, unbounded latency oracle over the
// physical graph of net.
func NewOracle(net *Network) *Oracle {
	return NewOracleWith(net, OracleOptions{})
}

// NewOracleWith builds a latency oracle with explicit memory options over
// a CSR snapshot of net's physical graph. The physical topology is fixed
// for an experiment's lifetime (churn moves peers, never routers or links),
// so the snapshot and every cached row stay valid.
func NewOracleWith(net *Network, opt OracleOptions) *Oracle {
	n := net.Graph.NumVertices()
	if opt.RowBudget < 0 {
		opt.RowBudget = 0
	}
	o := &Oracle{fz: net.Graph.Frozen(), opt: opt}
	if opt.Float32 {
		o.rows32 = make([]atomic.Pointer[[]float32], n)
	} else {
		o.rows = make([]atomic.Pointer[[]float64], n)
	}
	if opt.RowBudget == 0 {
		o.once = make([]sync.Once, n)
	} else {
		o.fifo = make([]int32, opt.RowBudget)
	}
	return o
}

// NumNodes reports the number of physical nodes the oracle covers.
func (o *Oracle) NumNodes() int { return o.fz.NumVertices() }

// SetInstruments attaches obs counters for cache activity: point queries,
// cached-row hits, Dijkstra row computations, and bounded-mode evictions.
// Any counter may be nil (obs counters are nil-safe); calling with all nils
// — or never calling — keeps the hot path at a single nil check. Attach
// before sharing the oracle across goroutines: the field itself is not
// synchronized.
func (o *Oracle) SetInstruments(queries, hits, computes, evictions *obs.Counter) {
	next := oracleInstr{queries: queries, hits: hits, computes: computes, evictions: evictions}
	if next == (oracleInstr{}) {
		o.instr = nil
		return
	}
	o.instr = &next
}

// Latency returns the physical shortest-path latency from u to v in
// milliseconds. It panics if either endpoint is out of range (the caller
// owns node IDs; an out-of-range ID is a programming error, not an
// environmental condition).
func (o *Oracle) Latency(u, v int) float64 {
	n := o.fz.NumVertices()
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("netsim: latency query (%d,%d) out of range [0,%d)", u, v, n))
	}
	if o.instr != nil {
		o.instr.queries.Add(1)
	}
	if u == v {
		return 0
	}
	// Prefer an already-computed row in either direction: distances are
	// symmetric in an undirected graph.
	if o.opt.Float32 {
		if p := o.rows32[u].Load(); p != nil {
			o.hit()
			return float64((*p)[v])
		}
		if p := o.rows32[v].Load(); p != nil {
			o.hit()
			return float64((*p)[u])
		}
	} else {
		if p := o.rows[u].Load(); p != nil {
			o.hit()
			return (*p)[v]
		}
		if p := o.rows[v].Load(); p != nil {
			o.hit()
			return (*p)[u]
		}
	}
	// Neither direction is cached: warm the lower-indexed endpoint, so the
	// symmetric query later reuses this row instead of running a second
	// Dijkstra into the other endpoint's slot. Read through the row ensure
	// returns, not a fresh Load — in bounded mode a concurrent admission
	// burst can evict u between ensure and a re-load, nil-ing the atomic.
	if u > v {
		u, v = v, u
	}
	r64, r32 := o.ensure(u)
	if o.opt.Float32 {
		return float64((*r32)[v])
	}
	return (*r64)[v]
}

// Row exposes the full distance vector from src, computing it on first use.
// In float64 mode the returned slice is the shared cached storage; callers
// must not mutate it. In Float32 mode it is a freshly allocated float64
// widening of the cached row. Useful for bulk metric computation.
func (o *Oracle) Row(src int) []float64 {
	n := o.fz.NumVertices()
	if src < 0 || src >= n {
		panic(fmt.Sprintf("netsim: row query %d out of range [0,%d)", src, n))
	}
	r64, r32 := o.ensure(src)
	if o.opt.Float32 {
		out := make([]float64, len(*r32))
		for i, d := range *r32 {
			out[i] = float64(d)
		}
		return out
	}
	return *r64
}

// load returns src's currently materialized row in the mode's
// representation, or (nil, nil) if it is not cached.
func (o *Oracle) load(src int) (*[]float64, *[]float32) {
	if o.opt.Float32 {
		return nil, o.rows32[src].Load()
	}
	return o.rows[src].Load(), nil
}

// loaded reports whether src's row is currently materialized.
func (o *Oracle) loaded(src int) bool {
	r64, r32 := o.load(src)
	return r64 != nil || r32 != nil
}

// store publishes a freshly computed row for src and bumps the counter.
func (o *Oracle) store(src int, r64 []float64, r32 []float32) {
	if o.opt.Float32 {
		o.rows32[src].Store(&r32)
	} else {
		o.rows[src].Store(&r64)
	}
	o.cached.Add(1)
}

// hit records a cached-row answer when instrumented.
func (o *Oracle) hit() {
	if o.instr != nil {
		o.instr.hits.Add(1)
	}
}

// compute runs one Dijkstra from src on the frozen CSR view into a fresh
// row of the mode's representation.
func (o *Oracle) compute(src int) (r64 []float64, r32 []float32) {
	if o.instr != nil {
		o.instr.computes.Add(1)
	}
	if o.opt.Float32 {
		r32 = make([]float32, o.fz.NumVertices())
		o.fz.ShortestPathsF32Into(src, r32)
		return nil, r32
	}
	r64 = make([]float64, o.fz.NumVertices())
	o.fz.ShortestPathsInto(src, r64)
	return r64, nil
}

// ensure materializes src's row if it is not cached and returns it in the
// mode's representation (exactly one of the results is non-nil). Callers
// must read distances through the returned row rather than re-loading the
// atomic slot: in bounded mode, concurrent admissions can evict src again
// immediately after ensure returns, and a re-load would observe nil.
//
// Unbounded mode uses the per-row sync.Once, so each Dijkstra runs at most
// once even under contention and rows are never evicted. Bounded mode
// computes outside the lock (so concurrent warm-ups of distinct rows still
// parallelize), then admits under the lock, evicting the oldest admitted
// row when the ring is full; a concurrent duplicate compute of the same row
// is possible but harmless — the admitted row wins and the duplicate is
// discarded.
func (o *Oracle) ensure(src int) (*[]float64, *[]float32) {
	if o.opt.RowBudget == 0 {
		o.once[src].Do(func() {
			r64, r32 := o.compute(src)
			o.store(src, r64, r32)
		})
		return o.load(src)
	}
	if r64, r32 := o.load(src); r64 != nil || r32 != nil {
		return r64, r32
	}
	r64, r32 := o.compute(src)
	o.mu.Lock()
	defer o.mu.Unlock()
	// Re-check under the lock: a concurrent duplicate compute may already
	// have admitted src. Eviction also holds mu, so this row is the answer.
	if l64, l32 := o.load(src); l64 != nil || l32 != nil {
		return l64, l32
	}
	if o.live == o.opt.RowBudget {
		victim := o.fifo[o.head]
		o.head++
		if o.head == len(o.fifo) {
			o.head = 0
		}
		o.live--
		if o.opt.Float32 {
			o.rows32[victim].Store(nil)
		} else {
			o.rows[victim].Store(nil)
		}
		o.cached.Add(-1)
		if o.instr != nil {
			o.instr.evictions.Add(1)
		}
	}
	o.store(src, r64, r32)
	tail := o.head + o.live
	if tail >= len(o.fifo) {
		tail -= len(o.fifo)
	}
	o.fifo[tail] = int32(src)
	o.live++
	if o.opt.Float32 {
		return nil, &r32
	}
	return &r64, nil
}

// Precompute warms the cache for the given sources. Experiments call this
// with the overlay's attachment hosts so the measurement phase is
// contention-free. All sources are validated before any work is enqueued: a
// bad source in the middle of the list panics without computing (or
// leaking) anything, so the cache is untouched rather than half-warmed.
//
// Parallelism: the calling goroutine always participates; up to
// GOMAXPROCS-1 extra workers are borrowed from a process-wide pool shared
// by all oracles, so concurrent Precompute calls (one per trial) never
// oversubscribe the CPUs.
func (o *Oracle) Precompute(sources []int) {
	n := o.fz.NumVertices()
	for _, s := range sources {
		if s < 0 || s >= n {
			panic(fmt.Sprintf("netsim: precompute source %d out of range [0,%d)", s, n))
		}
	}
	if len(sources) == 0 {
		return
	}
	ch := make(chan int, len(sources))
	for _, s := range sources {
		ch <- s
	}
	close(ch)
	var wg sync.WaitGroup
	extra := runtime.GOMAXPROCS(0) - 1
	if extra > len(sources)-1 {
		extra = len(sources) - 1
	}
acquire:
	for i := 0; i < extra; i++ {
		select {
		case precomputeSlots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-precomputeSlots
					wg.Done()
				}()
				for s := range ch {
					o.ensure(s)
				}
			}()
		default:
			break acquire // pool exhausted; the caller works alone
		}
	}
	for s := range ch {
		o.ensure(s)
	}
	wg.Wait()
}

// CachedRows reports how many source rows are currently materialized. It is
// O(1): an atomic counter maintained on every admission and eviction.
func (o *Oracle) CachedRows() int {
	return int(o.cached.Load())
}
