package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/rdf"
	"sama/internal/shard"
	"sama/internal/workload"
)

// assertSameAnswers fails unless two ranked answer lists are
// bit-identical: same length, scores, components, substitutions, and
// per-pair data paths.
func assertSameAnswers(t *testing.T, label, qid string, want, got []Answer) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s %s: %d answers, reference has %d", label, qid, len(got), len(want))
		return
	}
	for i := range want {
		if want[i].Score != got[i].Score || want[i].Lambda != got[i].Lambda ||
			want[i].Psi != got[i].Psi || want[i].Degree != got[i].Degree {
			t.Errorf("%s %s answer %d: (score %v λ %v ψ %v deg %v) != reference (score %v λ %v ψ %v deg %v)",
				label, qid, i, got[i].Score, got[i].Lambda, got[i].Psi, got[i].Degree,
				want[i].Score, want[i].Lambda, want[i].Psi, want[i].Degree)
			return
		}
		if !reflect.DeepEqual(want[i].Subst, got[i].Subst) {
			t.Errorf("%s %s answer %d: substitutions differ", label, qid, i)
			return
		}
		for pi := range want[i].Pairs {
			if want[i].Pairs[pi].Data.Key() != got[i].Pairs[pi].Data.Key() {
				t.Errorf("%s %s answer %d pair %d: different data paths", label, qid, i, pi)
				return
			}
		}
	}
}

// planHasAttr reports whether the node or any descendant carries the
// attribute.
func planHasAttr(n *obs.PlanNode, key string) bool {
	if n == nil {
		return false
	}
	if _, ok := n.Attrs[key]; ok {
		return true
	}
	for _, c := range n.Children {
		if planHasAttr(c, key) {
			return true
		}
	}
	return false
}

// TestClusterEquivalenceAcrossEngines is the equivalence suite for the
// signature-gated, threshold-pruned cluster phase: over the Figure 7
// LUBM workload mix, the pruned engine must return ranked answers
// bit-identical to the unpruned one at every parallelism (1 and 8) and
// shard count (1 and 4). A small cluster cap forces the signature
// frontier cut on every large cluster, so the comparison covers the
// gated code path, not just the align-everything fast path. (The
// pruning barrier itself rarely fires on this organic mix — after the
// cut the frontier is uniformly strong — so
// TestThresholdPruningFiresAndPreservesAnswers pins it on a crafted
// graph.) Runs under -race via make check's race-hot pass.
func TestClusterEquivalenceAcrossEngines(t *testing.T) {
	g := datasets.LUBM{}.Generate(6000, 7)
	base := filepath.Join(t.TempDir(), "lubm")
	ix, err := index.Build(base, g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	sets := map[int]*shard.Set{}
	for _, n := range []int{1, 4} {
		s, err := shard.Build(filepath.Join(t.TempDir(), fmt.Sprintf("s%d", n)), g, shard.Options{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sets[n] = s
	}

	// A tight cap guarantees cuts and pruning on the bigger clusters.
	const cap = 16
	ref := New(ix, Options{Parallelism: 1, MaxCandidatesPerCluster: cap, testNoClusterPrune: true})
	defer ref.Close()

	variants := []struct {
		name string
		e    *Engine
	}{
		{"pruned par=1", New(ix, Options{Parallelism: 1, MaxCandidatesPerCluster: cap})},
		{"pruned par=8", New(ix, Options{Parallelism: 8, MaxCandidatesPerCluster: cap})},
		{"unpruned par=8", New(ix, Options{Parallelism: 8, MaxCandidatesPerCluster: cap, testNoClusterPrune: true})},
		{"pruned shards=1", NewSharded(sets[1], Options{Parallelism: 1, MaxCandidatesPerCluster: cap})},
		{"pruned shards=4 par=8", NewSharded(sets[4], Options{Parallelism: 8, MaxCandidatesPerCluster: cap})},
		{"unpruned shards=4", NewSharded(sets[4], Options{Parallelism: 1, MaxCandidatesPerCluster: cap, testNoClusterPrune: true})},
	}
	for _, v := range variants {
		defer v.e.Close()
	}

	cutSeen := false
	for _, q := range workload.LUBMQueries() {
		want, err := ref.Query(q.Pattern, 10)
		if err != nil {
			t.Fatalf("%s reference: %v", q.ID, err)
		}
		for _, v := range variants {
			got, err := v.e.Query(q.Pattern, 10)
			if err != nil {
				t.Fatalf("%s %s: %v", q.ID, v.name, err)
			}
			assertSameAnswers(t, v.name, q.ID, want, got)
		}
		// Confirm the signature gate actually cut frontiers somewhere in
		// the mix, so the equivalence above is not vacuous.
		_, st, err := variants[0].e.QueryWithStats(q.Pattern, 10)
		if err != nil {
			t.Fatalf("%s explain: %v", q.ID, err)
		}
		for _, ph := range st.Plan().Phases {
			if planHasAttr(ph, "sig_rejected") {
				cutSeen = true
			}
		}
	}
	if !cutSeen {
		t.Error("no query in the mix triggered the signature frontier cut; the equivalence test is vacuous")
	}
}

// TestThresholdPruningFiresAndPreservesAnswers pins the pruning barrier
// itself on a graph built so that it must fire: sixteen exact matches
// (cost 0, bound 0) fill the first alignment wave, and eight decoys
// sharing only the sink carry a λ lower bound of A+2C > 0, so the
// barrier proves they cannot beat the cap'th best (0) and skips them.
// The explain plan must say so (bound_pruned = 8, aligned = 16), and
// the ranked answers must be bit-identical to the unpruned engine's —
// pruning only skipped work the cap would have discarded.
func TestThresholdPruningFiresAndPreservesAnswers(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 16; i++ {
		a := iri(fmt.Sprintf("A%02d", i))
		g.AddTriple(rdf.Triple{S: a, P: iri("r"), O: iri("Hub")})
	}
	g.AddTriple(rdf.Triple{S: iri("Hub"), P: iri("s"), O: iri("Sink")})
	for j := 0; j < 8; j++ {
		d := iri(fmt.Sprintf("D%02d", j))
		e := iri(fmt.Sprintf("E%02d", j))
		g.AddTriple(rdf.Triple{S: d, P: iri("t"), O: e})
		g.AddTriple(rdf.Triple{S: e, P: iri("u"), O: iri("Sink")})
	}
	base := filepath.Join(t.TempDir(), "prune")
	ix, err := index.Build(base, g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// ?v -r-> Hub -s-> Sink: one query path, sink retrieval returns all
	// 24 paths ending at Sink. Cap 12 → budget 24: no frontier cut, two
	// waves of max(12, minAlignChunk) = 16.
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("v"), P: iri("r"), O: iri("Hub")})
	q.AddTriple(rdf.Triple{S: iri("Hub"), P: iri("s"), O: iri("Sink")})

	pruned := New(ix, Options{MaxCandidatesPerCluster: 12})
	plain := New(ix, Options{MaxCandidatesPerCluster: 12, testNoClusterPrune: true})
	defer pruned.Close()
	defer plain.Close()

	got, st, err := pruned.QueryWithStats(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plain.QueryWithStats(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, "pruned", "crafted", want, got)

	var alignNode *obs.PlanNode
	for _, ph := range st.Plan().Phases {
		if ph.Name == "cluster" && len(ph.Children) > 0 {
			alignNode = ph.Children[0]
		}
	}
	if alignNode == nil {
		t.Fatal("no align span in the plan")
	}
	if got := alignNode.Attrs["bound_pruned"]; got != 8 {
		t.Errorf("bound_pruned = %d, want 8 (attrs %v)", got, alignNode.Attrs)
	}
	if got := alignNode.Attrs["aligned"]; got != 16 {
		t.Errorf("aligned = %d, want 16 (attrs %v)", got, alignNode.Attrs)
	}
}

// findPlanAttr returns the first value of the attribute found on the
// node or any descendant.
func findPlanAttr(n *obs.PlanNode, key string) (int64, bool) {
	if n == nil {
		return 0, false
	}
	if v, ok := n.Attrs[key]; ok {
		return v, true
	}
	for _, c := range n.Children {
		if v, ok := findPlanAttr(c, key); ok {
			return v, true
		}
	}
	return 0, false
}

// TestShortCandidateBarrierFiresAndPreservesAnswers pins the
// short-candidate barrier on a graph where the λ-bound barrier cannot
// arm: sixteen full-length exact matches and eight shorter-than-query
// decoys, under a cap of 20. The first wave aligns the sixteen fulls
// plus four shorts (bound order), leaving only 16 < 20 full-length
// costs staged — the kth-cost barrier stays dark — yet one staged
// full-length item is enough to prove the shorter-path fallback dead,
// so the remaining four short misses are dropped unaligned. The plan
// must show it (short_pruned = 4, aligned = 20) and the answers must
// be bit-identical to the unpruned engine's, on the monolith and on a
// two-shard build alike.
func TestShortCandidateBarrierFiresAndPreservesAnswers(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 16; i++ {
		a := iri(fmt.Sprintf("A%02d", i))
		g.AddTriple(rdf.Triple{S: a, P: iri("r"), O: iri("Hub")})
	}
	g.AddTriple(rdf.Triple{S: iri("Hub"), P: iri("s"), O: iri("Sink")})
	for j := 0; j < 8; j++ {
		x := iri(fmt.Sprintf("X%02d", j))
		g.AddTriple(rdf.Triple{S: x, P: iri("s"), O: iri("Sink")})
	}
	base := filepath.Join(t.TempDir(), "short")
	ix, err := index.Build(base, g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	set, err := shard.Build(filepath.Join(t.TempDir(), "shards"), g, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// ?v -r-> Hub -s-> Sink (three nodes). Sink retrieval returns all 24
	// paths; the 16 A→Hub→Sink paths bound to 0, the 8 two-node X→Sink
	// paths carry a deficit-1 bound and sort after them.
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("v"), P: iri("r"), O: iri("Hub")})
	q.AddTriple(rdf.Triple{S: iri("Hub"), P: iri("s"), O: iri("Sink")})

	plain := New(ix, Options{MaxCandidatesPerCluster: 20, testNoClusterPrune: true})
	defer plain.Close()
	want, _, err := plain.QueryWithStats(q, 16)
	if err != nil {
		t.Fatal(err)
	}

	engines := []struct {
		name string
		e    *Engine
	}{
		{"monolith", New(ix, Options{MaxCandidatesPerCluster: 20})},
		{"sharded", NewSharded(set, Options{MaxCandidatesPerCluster: 20})},
	}
	for _, v := range engines {
		defer v.e.Close()
	}
	for _, v := range engines {
		got, st, err := v.e.QueryWithStats(q, 16)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		assertSameAnswers(t, v.name, "crafted", want, got)
		var cluster *obs.PlanNode
		for _, ph := range st.Plan().Phases {
			if ph.Name == "cluster" {
				cluster = ph
			}
		}
		if cluster == nil {
			t.Fatalf("%s: no cluster phase in the plan", v.name)
		}
		if sp, ok := findPlanAttr(cluster, "short_pruned"); !ok || sp != 4 {
			t.Errorf("%s: short_pruned = %d (found %v), want 4", v.name, sp, ok)
		}
		if al, ok := findPlanAttr(cluster, "aligned"); !ok || al != 20 {
			t.Errorf("%s: aligned = %d (found %v), want 20", v.name, al, ok)
		}
		if bp, ok := findPlanAttr(cluster, "bound_pruned"); !ok || bp != 4 {
			t.Errorf("%s: bound_pruned = %d (found %v), want 4", v.name, bp, ok)
		}
	}
}

// TestSearchEquivalenceAcrossEngines is the equivalence suite for the
// search phase: over the Figure 7 LUBM workload mix, the binding-vector
// frontier (precompiled pair scoring, incremental (λ, ψ, degree)
// deltas, tight termination bound, interned join keys) must return
// ranked answers bit-identical to the serial monolith's at every
// parallelism (1, 8) and shard count (1, 4). The tight cluster cap
// keeps per-cluster frontiers rich so the search loop, the tie horizon,
// and the join pass all engage; TestAnswersMatchGoldenCorpus pins the
// same answers against the frozen corpus.
// Runs under -race via make check's race-hot pass.
func TestSearchEquivalenceAcrossEngines(t *testing.T) {
	g := datasets.LUBM{}.Generate(6000, 7)
	base := filepath.Join(t.TempDir(), "lubm")
	ix, err := index.Build(base, g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	sets := map[int]*shard.Set{}
	for _, n := range []int{1, 4} {
		s, err := shard.Build(filepath.Join(t.TempDir(), fmt.Sprintf("s%d", n)), g, shard.Options{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sets[n] = s
	}

	const cap = 16
	ref := New(ix, Options{Parallelism: 1, MaxCandidatesPerCluster: cap})
	defer ref.Close()

	variants := []struct {
		name string
		e    *Engine
	}{
		{"par=8", New(ix, Options{Parallelism: 8, MaxCandidatesPerCluster: cap})},
		{"shards=1", NewSharded(sets[1], Options{Parallelism: 1, MaxCandidatesPerCluster: cap})},
		{"shards=4 par=8", NewSharded(sets[4], Options{Parallelism: 8, MaxCandidatesPerCluster: cap})},
	}
	for _, v := range variants {
		defer v.e.Close()
	}

	deltasSeen := false
	for _, q := range workload.LUBMQueries() {
		want, err := ref.Query(q.Pattern, 10)
		if err != nil {
			t.Fatalf("%s reference: %v", q.ID, err)
		}
		for _, v := range variants {
			got, err := v.e.Query(q.Pattern, 10)
			if err != nil {
				t.Fatalf("%s %s: %v", q.ID, v.name, err)
			}
			assertSameAnswers(t, v.name, q.ID, want, got)
		}
		// Confirm the incremental scorer actually reused parent pair
		// values somewhere in the mix, so the equivalence is not
		// exercising an empty frontier.
		_, st, err := ref.QueryWithStats(q.Pattern, 10)
		if err != nil {
			t.Fatalf("%s explain: %v", q.ID, err)
		}
		for _, ph := range st.Plan().Phases {
			if ph.Name != "search" {
				continue
			}
			if ph.Attrs["psi_memo_hits"] > 0 && ph.Attrs["frontier_peak"] > 0 {
				deltasSeen = true
			}
		}
	}
	if !deltasSeen {
		t.Error("no query in the mix reused incremental pair values; the search equivalence test is vacuous")
	}
}
