package graph

import "sort"

// This file is the graph's mutation journal (DESIGN.md §11): a version
// counter, a bounded log of structural mutations, and NetDiff, which
// collapses a logged batch into its net edge changes. metrics.ALTracker
// reads it on the logical overlay graph to repair only the flood rows a
// batch of topology changes touched.

// MutationKind identifies one kind of structural Graph mutation recorded in
// the journal enabled by TrackMutations.
type MutationKind uint8

// The journal records four mutation kinds; AddEdge on an existing edge is
// recorded as MutSetWeight so the old weight survives for delta consumers.
const (
	// MutAddVertex records an AddVertex call; U is the new vertex, V is -1.
	MutAddVertex MutationKind = iota
	// MutAddEdge records a new undirected edge {U,V} with weight W.
	MutAddEdge
	// MutRemoveEdge records the removal of edge {U,V}; OldW is the weight
	// the edge had when removed.
	MutRemoveEdge
	// MutSetWeight records an overwrite of edge {U,V} from OldW to W.
	MutSetWeight
)

// Mutation is one recorded Graph mutation. W is the new weight (MutAddEdge,
// MutSetWeight); OldW is the previous weight (MutRemoveEdge, MutSetWeight).
type Mutation struct {
	Kind MutationKind
	U, V int
	W    float64
	OldW float64
}

// noteMutation bumps the graph version and, when tracking is on, appends to
// the journal. Overflow clears the journal and re-anchors it at the current
// version: consumers synced before the overflow get a MutationsSince miss
// and must resync from a fresh snapshot.
func (g *Graph) noteMutation(m Mutation) {
	g.version++
	if g.journalCap == 0 {
		return
	}
	if len(g.journal) >= g.journalCap {
		g.journal = g.journal[:0]
		g.journalAt = g.version
		return
	}
	g.journal = append(g.journal, m)
}

// Version returns the graph's mutation counter. It increments on every
// effective mutation (AddVertex, AddEdge, RemoveEdge, weight overwrite);
// no-op calls leave it unchanged.
func (g *Graph) Version() uint64 { return g.version }

// TrackMutations enables the bounded mutation journal with the given
// capacity (in mutations), clearing any previous journal and anchoring it
// at the current version. capacity <= 0 disables tracking. The journal is
// the feed for MutationsSince; when more than capacity mutations
// accumulate between consumer syncs the journal overflows and consumers
// must resync from scratch.
func (g *Graph) TrackMutations(capacity int) {
	if capacity <= 0 {
		g.journalCap = 0
		g.journal = nil
		g.journalAt = g.version
		return
	}
	g.journalCap = capacity
	g.journal = g.journal[:0]
	g.journalAt = g.version
}

// MutationsSince returns the mutations that advanced the graph from version
// since to its current state, oldest first, and whether the journal still
// covers that window. The returned slice aliases the internal journal and
// is valid only until the next mutation. ok is false when tracking is off
// (unless since is already current), when since predates the journal
// anchor (overflow), or when since is in the future.
func (g *Graph) MutationsSince(since uint64) ([]Mutation, bool) {
	if since == g.version {
		return nil, true
	}
	if g.journalCap == 0 || since > g.version || since < g.journalAt {
		return nil, false
	}
	return g.journal[since-g.journalAt:], true
}

// NetDiff collapses a mutation sequence into its net effect on the edge
// set: edges present after the batch but not before (added, with final
// weights) and edges present before but not after (removed, with pre-batch
// weights). An edge whose weight changed appears in both lists. Mutations
// that cancel out (add then remove, remove then re-add at the same weight)
// produce nothing. Both lists are sorted by (U,V) so downstream iteration
// is deterministic. MutAddVertex entries are ignored; vertex growth is
// visible through the graph's NumVertices.
func NetDiff(muts []Mutation) (added, removed []Edge) {
	type pairState struct {
		preW       float64 // weight before the batch, if preExisted
		preExisted bool
		postW      float64 // weight after the batch, if postExists
		postExists bool
	}
	states := make(map[int64]*pairState)
	key := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	for _, m := range muts {
		if m.Kind == MutAddVertex {
			continue
		}
		k := key(m.U, m.V)
		st := states[k]
		if st == nil {
			st = &pairState{}
			// The first mutation touching a pair reveals its pre-batch
			// state: an add means absent, a removal or overwrite means
			// present at OldW.
			if m.Kind != MutAddEdge {
				st.preExisted = true
				st.preW = m.OldW
			}
			states[k] = st
		}
		switch m.Kind {
		case MutAddEdge, MutSetWeight:
			st.postExists = true
			st.postW = m.W
		case MutRemoveEdge:
			st.postExists = false
		}
	}
	for k, st := range states {
		u, v := int(k>>32), int(k&0xffffffff)
		switch {
		case st.preExisted && st.postExists && st.preW != st.postW:
			removed = append(removed, Edge{U: u, V: v, W: st.preW})
			added = append(added, Edge{U: u, V: v, W: st.postW})
		case st.preExisted && !st.postExists:
			removed = append(removed, Edge{U: u, V: v, W: st.preW})
		case !st.preExisted && st.postExists:
			added = append(added, Edge{U: u, V: v, W: st.postW})
		}
	}
	byPair := func(s []Edge) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].U != s[j].U {
				return s[i].U < s[j].U
			}
			return s[i].V < s[j].V
		}
	}
	sort.Slice(added, byPair(added))
	sort.Slice(removed, byPair(removed))
	return added, removed
}
