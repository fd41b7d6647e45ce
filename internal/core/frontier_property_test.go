package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"sama/internal/index"
)

// TestIncrementalPairDeltasMatchScratch is the randomized property test
// for the frontier's incremental scoring: over seeded random graphs and
// star queries, it replays random successor walks and asserts that
// patching only the pairs incident to the bumped cluster leaves the
// pair-value vector bit-identical to a from-scratch fill, and that the
// folded (λ, ψ, degree) equal a direct fold of the align primitives
// (oracleFold) exactly — not approximately. Any divergence here would
// break the ranked answers' bit-identicality long before it showed up
// in them.
func TestIncrementalPairDeltasMatchScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const rounds = 8
	pairsSeen, stepsRun := 0, 0
	for round := 0; round < rounds; round++ {
		g, q := randomStarCase(rng, 8+rng.Intn(12))
		base := filepath.Join(t.TempDir(), fmt.Sprintf("g%d", round))
		ix, err := index.Build(base, g, index.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e := New(ix, Options{})

		pre := e.Preprocess(q)
		clusters, err := e.Cluster(pre)
		if err != nil {
			t.Fatal(err)
		}
		eff, _, _ := splitEffective(clusters)
		if len(eff) < 2 {
			ix.Close()
			e.Close()
			continue
		}
		ps := newPairScorer(e, pre, eff)
		if len(ps.pairs) > 0 {
			pairsSeen++
		}

		idx := make([]int, len(eff))
		pv := make([]float64, 2*len(ps.pairs))
		scratch := make([]float64, 2*len(ps.pairs))
		ps.fillPairVals(idx, pv)
		for step := 0; step < 200; step++ {
			// Bump a random cluster that still has a successor, exactly
			// the move the frontier expansion makes.
			ci := rng.Intn(len(eff))
			moved := false
			for off := 0; off < len(eff); off++ {
				c := (ci + off) % len(eff)
				if idx[c]+1 < len(eff[c].Items) {
					idx[c]++
					ps.patchPairVals(idx, c, pv)
					moved = true
					break
				}
			}
			if !moved {
				break
			}
			stepsRun++

			ps.fillPairVals(idx, scratch)
			for i := range pv {
				if pv[i] != scratch[i] {
					t.Fatalf("round %d step %d: pair value %d drifted: patched %v, scratch %v (idx %v)",
						round, step, i, pv[i], scratch[i], idx)
				}
			}
			psi, degree := ps.sumPairVals(pv)
			wantLambda, wantPsi, wantDeg := oracleFold(e.Params(), eff, idx)
			if psi != wantPsi || degree != wantDeg {
				t.Fatalf("round %d step %d: folded (ψ %v, deg %v) != oracle (ψ %v, deg %v) at idx %v",
					round, step, psi, degree, wantPsi, wantDeg, idx)
			}
			if l := ps.comboLambda(idx); l != wantLambda {
				t.Fatalf("round %d step %d: flat λ %v != oracle λ %v at idx %v", round, step, l, wantLambda, idx)
			}
		}
		ix.Close()
		e.Close()
	}
	if pairsSeen == 0 || stepsRun == 0 {
		t.Fatalf("vacuous run: %d rounds with pairs, %d walk steps", pairsSeen, stepsRun)
	}
}
