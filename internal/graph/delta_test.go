package graph

import "testing"

func TestVersionAndJournal(t *testing.T) {
	g := New(4)
	if g.Version() != 0 {
		t.Fatalf("fresh graph version = %d, want 0", g.Version())
	}
	g.TrackMutations(16)
	v0 := g.Version()
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 7)
	if g.Version() != v0+2 {
		t.Fatalf("version after 2 adds = %d, want %d", g.Version(), v0+2)
	}
	// No-op overwrite: same weight must not bump the version or journal.
	g.MustAddEdge(0, 1, 5)
	if g.Version() != v0+2 {
		t.Fatalf("no-op overwrite bumped version to %d", g.Version())
	}
	// Weight change is recorded as MutSetWeight with the old weight.
	g.MustAddEdge(0, 1, 9)
	g.RemoveEdge(1, 2)
	muts, ok := g.MutationsSince(v0)
	if !ok {
		t.Fatal("MutationsSince(v0) not ok")
	}
	want := []Mutation{
		{Kind: MutAddEdge, U: 0, V: 1, W: 5},
		{Kind: MutAddEdge, U: 1, V: 2, W: 7},
		{Kind: MutSetWeight, U: 0, V: 1, W: 9, OldW: 5},
		{Kind: MutRemoveEdge, U: 1, V: 2, OldW: 7},
	}
	if len(muts) != len(want) {
		t.Fatalf("journal length %d, want %d", len(muts), len(want))
	}
	for i := range want {
		if muts[i] != want[i] {
			t.Fatalf("journal[%d] = %+v, want %+v", i, muts[i], want[i])
		}
	}
	if _, ok := g.MutationsSince(g.Version()); !ok {
		t.Fatal("MutationsSince(current) must be ok")
	}
	if _, ok := g.MutationsSince(g.Version() + 1); ok {
		t.Fatal("MutationsSince(future) must not be ok")
	}
}

func TestJournalOverflow(t *testing.T) {
	g := New(8)
	g.TrackMutations(3)
	v0 := g.Version()
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1) // overflows: journal clears and re-anchors
	if _, ok := g.MutationsSince(v0); ok {
		t.Fatal("MutationsSince across an overflow must fail")
	}
	// After the overflow the journal restarts; a consumer syncing now works.
	v1 := g.Version()
	g.MustAddEdge(4, 5, 1)
	muts, ok := g.MutationsSince(v1)
	if !ok || len(muts) != 1 {
		t.Fatalf("post-overflow MutationsSince = (%d muts, ok=%v), want (1, true)", len(muts), ok)
	}
}

func TestNetDiffCancellation(t *testing.T) {
	g := New(6)
	g.TrackMutations(64)
	g.MustAddEdge(0, 1, 5) // persists
	g.MustAddEdge(2, 3, 7) // removed below → cancels
	g.RemoveEdge(2, 3)
	v0 := g.Version()
	_ = v0

	muts, _ := g.MutationsSince(0)
	added, removed := NetDiff(muts)
	if len(added) != 1 || added[0] != (Edge{U: 0, V: 1, W: 5}) {
		t.Fatalf("added = %+v, want [{0 1 5}]", added)
	}
	if len(removed) != 0 {
		t.Fatalf("removed = %+v, want empty", removed)
	}

	// Remove then re-add at the same weight cancels; different weight is a
	// remove+add pair.
	g2 := New(4)
	g2.MustAddEdge(0, 1, 5)
	g2.MustAddEdge(1, 2, 5)
	g2.TrackMutations(64)
	v2 := g2.Version()
	g2.RemoveEdge(0, 1)
	g2.MustAddEdge(0, 1, 5)
	g2.MustAddEdge(1, 2, 9)
	muts2, ok2 := g2.MutationsSince(v2)
	if !ok2 {
		t.Fatal("MutationsSince(v2) not ok")
	}
	added2, removed2 := NetDiff(muts2)
	if len(added2) != 1 || added2[0] != (Edge{U: 1, V: 2, W: 9}) {
		t.Fatalf("added2 = %+v, want [{1 2 9}]", added2)
	}
	if len(removed2) != 1 || removed2[0] != (Edge{U: 1, V: 2, W: 5}) {
		t.Fatalf("removed2 = %+v, want [{1 2 5}]", removed2)
	}
}
