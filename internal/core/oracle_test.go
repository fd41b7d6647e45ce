package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"sama/internal/align"
	"sama/internal/index"
	"sama/internal/paths"
	"sama/internal/rdf"
)

// oracleFold scores one combination straight from the align
// primitives, sharing no code with the search's precompiled scorer:
// λ sums the chosen items' costs in cluster order, and Ψ and the
// conformity degree fold align.PsiAligned / align.PsiDegreeAligned over
// every pair of clusters whose query paths share a node, in (i, j)
// order.
func oracleFold(par align.Params, eff []Cluster, idx []int) (lambda, psi, degree float64) {
	for ci, ii := range idx {
		lambda += eff[ci].Items[ii].Cost()
	}
	for i := range eff {
		for j := i + 1; j < len(eff); j++ {
			qi, qj := eff[i].Query, eff[j].Query
			if len(paths.CommonNodes(qi, qj)) == 0 {
				continue
			}
			a, b := eff[i].Items[idx[i]], eff[j].Items[idx[j]]
			psi += align.PsiAligned(qi, qj, a.Alignment.Subst, b.Alignment.Subst, a.Path, b.Path, par)
			degree += align.PsiDegreeAligned(qi, qj, a.Alignment.Subst, b.Alignment.Subst, a.Path, b.Path)
		}
	}
	return lambda, psi, degree
}

// oracleMissPenalty prices the query paths whose clusters came back
// empty: the full deletion of each (A per node, C per edge), then E·χ
// for every pair of query paths sharing nodes where either side is
// missing, in (i, j) order.
func oracleMissPenalty(par align.Params, clusters []Cluster) float64 {
	var pen float64
	for _, cl := range clusters {
		if len(cl.Items) == 0 {
			pen += par.A*float64(len(cl.Query.Nodes)) + par.C*float64(len(cl.Query.Edges))
		}
	}
	for i := range clusters {
		for j := i + 1; j < len(clusters); j++ {
			if len(clusters[i].Items) > 0 && len(clusters[j].Items) > 0 {
				continue
			}
			pen += par.E * float64(len(paths.CommonNodes(clusters[i].Query, clusters[j].Query)))
		}
	}
	return pen
}

// oracleRank is one enumerated combination's rank key.
type oracleRank struct{ score, degree float64 }

// oracleTopK enumerates every combination of the non-empty clusters,
// scores each with oracleFold plus the miss penalty, and returns the
// (score, degree) sequence of the best k under the search's order —
// score ascending, degree descending. ok is false when the product of
// the cluster sizes exceeds limit.
func oracleTopK(par align.Params, clusters []Cluster, k, limit int) ([]oracleRank, bool) {
	var eff []Cluster
	total := 1
	for _, cl := range clusters {
		if len(cl.Items) == 0 {
			continue
		}
		eff = append(eff, cl)
		total *= len(cl.Items)
		if total > limit {
			return nil, false
		}
	}
	if len(eff) == 0 {
		return nil, true
	}
	pen := oracleMissPenalty(par, clusters)
	all := make([]oracleRank, 0, total)
	idx := make([]int, len(eff))
	for {
		lambda, psi, degree := oracleFold(par, eff, idx)
		lambda += pen
		all = append(all, oracleRank{score: lambda + psi, degree: degree})
		ci := 0
		for ; ci < len(idx); ci++ {
			idx[ci]++
			if idx[ci] < len(eff[ci].Items) {
				break
			}
			idx[ci] = 0
		}
		if ci == len(idx) {
			break
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score < all[j].score
		}
		return all[i].degree > all[j].degree
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, true
}

// TestSearchMatchesBruteForceOracle checks the search phase against an
// exhaustive enumeration that shares none of its code: on seeded tiny
// graphs (random star queries, plus the crafted query whose paths share
// more than 64 constants), every combination of the clusters e.Cluster
// returns is scored by oracleFold, and the engine's top-k (score,
// degree) sequence must equal the oracle's bit for bit at several k.
// The tie horizon is lifted so the frontier is exhaustive on ties too;
// on these sizes the search is then exact, not heuristic.
func TestSearchMatchesBruteForceOracle(t *testing.T) {
	type oracleCase struct {
		name    string
		g       *rdf.Graph
		q       *rdf.QueryGraph
		idxOpts index.Options
	}
	var cases []oracleCase
	rng := rand.New(rand.NewSource(77))
	for r := 0; r < 24; r++ {
		g, q := randomStarCase(rng, 3+rng.Intn(5))
		cases = append(cases, oracleCase{name: fmt.Sprintf("star%d", r), g: g, q: q})
	}
	g, q := wideSharedConstCase()
	cases = append(cases, oracleCase{name: "widechain", g: g, q: q,
		idxOpts: index.Options{Paths: paths.Config{MaxLength: wideChainLen + 8, MaxPerRoot: 16}}})

	const limit = 20000
	compared := 0
	for _, c := range cases {
		ix, err := index.Build(filepath.Join(t.TempDir(), c.name), c.g, c.idxOpts)
		if err != nil {
			t.Fatal(err)
		}
		e := New(ix, Options{MaxTieVisits: 1 << 30})
		pre := e.Preprocess(c.q)
		clusters, err := e.Cluster(pre)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 10, 40} {
			want, ok := oracleTopK(e.Params(), clusters, k, limit)
			if !ok {
				break
			}
			got := e.Search(pre, clusters, k)
			if len(got) != len(want) {
				t.Errorf("%s k=%d: %d answers, oracle has %d", c.name, k, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i].Score != want[i].score || got[i].Degree != want[i].degree {
					t.Errorf("%s k=%d answer %d: (score %v, degree %v), oracle (score %v, degree %v)",
						c.name, k, i, got[i].Score, got[i].Degree, want[i].score, want[i].degree)
					break
				}
			}
			compared++
		}
		e.Close()
		ix.Close()
	}
	if want := 4 * len(cases); compared != want {
		t.Fatalf("compared %d of %d (case, k) runs; the rest were too large to enumerate", compared, want)
	}
}
