package core

import (
	"context"
	"sort"

	"sama/internal/align"
	"sama/internal/paths"
)

// Search combines the clustered paths into the top-k answers (§5,
// Search). Combinations are expanded from the per-cluster rankings in
// non-decreasing Λ order through a priority queue (one path per
// cluster, starting from the all-best combination and relaxing one
// cluster at a time); each visited combination is scored with the full
// score = Λ + Ψ.
//
// Early termination is sound: under the alignment-aware χ, χa ≤ |χ(qi,
// qj)|, so every matched intersection-graph pair contributes ψ ≥ e.
// Once the frontier's Λ plus that Ψ lower bound exceeds the k-th best
// total, no unseen combination can improve the result set. k ≤ 0
// returns every combination visited (within the MaxCombinations
// budget).
func (e *Engine) Search(pre *Preprocessed, clusters []Cluster, k int) []Answer {
	return e.SearchContext(context.Background(), pre, clusters, k)
}

// SearchContext is Search under a context. The frontier loop checks the
// context every iteration: on cancellation it stops expanding and
// returns the answers ranked so far. Because combinations are visited
// in non-decreasing Λ order and the result list is kept sorted by full
// score, the truncated result is a valid best-so-far prefix in
// non-decreasing score order.
func (e *Engine) SearchContext(ctx context.Context, pre *Preprocessed, clusters []Cluster, k int) []Answer {
	return e.searchTraced(ctx, pre, clusters, k, nil)
}

// splitEffective separates the clusters with candidates (the frontier's
// dimensions) from the missed query paths, which contribute a fixed
// deletion penalty to Λ and a fixed non-conformity penalty to Ψ.
func splitEffective(clusters []Cluster) (eff []Cluster, missing []paths.Path, missed map[int]bool) {
	missed = make(map[int]bool)
	for _, cl := range clusters {
		if len(cl.Items) == 0 {
			missing = append(missing, cl.Query)
			missed[cl.QueryIndex] = true
			continue
		}
		eff = append(eff, cl)
	}
	return eff, missing, missed
}

// scored is one ranked combination.
type scored struct {
	idx         []int
	lambda      float64
	psi, degree float64
	score       float64
}

// resultList keeps the top-k combinations sorted by (score asc, degree
// desc).
type resultList struct {
	k       int
	results []scored
}

// worst returns the k-th best total so far, or -1 while the list is
// not full (or unbounded).
func (rl *resultList) worst() float64 {
	if rl.k <= 0 || len(rl.results) < rl.k {
		return -1
	}
	return rl.results[rl.k-1].score
}

// add inserts sorted by (score asc, degree desc) and returns the index
// slice the top-k cut displaced (s's own when it did not qualify), for
// the caller's free list — nil when nothing was displaced.
func (rl *resultList) add(s scored) []int {
	pos := sort.Search(len(rl.results), func(i int) bool {
		if rl.results[i].score != s.score {
			return rl.results[i].score > s.score
		}
		return rl.results[i].degree < s.degree
	})
	if rl.k > 0 && len(rl.results) >= rl.k && pos >= rl.k {
		return s.idx
	}
	rl.results = append(rl.results, scored{})
	copy(rl.results[pos+1:], rl.results[pos:])
	rl.results[pos] = s
	if rl.k > 0 && len(rl.results) > rl.k {
		evicted := rl.results[rl.k].idx
		rl.results = rl.results[:rl.k]
		return evicted
	}
	return nil
}

// Join-pass budgets: seeds per intersection-graph pair, seeds per
// query, and items inspected per cluster while greedily extending a
// seed.
const (
	maxSeedsPerPair = 48
	maxTotalSeeds   = 192
	maxChecksPerCol = 512
)

// missPenalty prices the query paths with empty clusters: each costs its
// full deletion (A per node, C per edge) plus the worst-case ψ for every
// intersection-graph edge touching it.
func (e *Engine) missPenalty(pre *Preprocessed, missing []paths.Path, missed map[int]bool) float64 {
	var pen float64
	for _, q := range missing {
		pen += e.par.A*float64(len(q.Nodes)) + e.par.C*float64(len(q.Edges))
	}
	for qi, edges := range pre.IG {
		for _, edge := range edges {
			if edge.To < qi {
				continue // count each undirected edge once
			}
			if missed[qi] || missed[edge.To] {
				pen += e.par.E * float64(edge.Chi)
			}
		}
	}
	return pen
}

// buildAnswer materialises one scored combination.
func (e *Engine) buildAnswer(eff []Cluster, idx []int, missing []paths.Path, lambda, psi, degree float64) Answer {
	pairs := make([]align.PairedPath, len(eff))
	for ci, ii := range idx {
		item := eff[ci].Items[ii]
		pairs[ci] = align.PairedPath{
			Query:     eff[ci].Query,
			Data:      item.Path,
			Alignment: item.Alignment,
		}
	}
	ans := Answer{
		Pairs:   pairs,
		Missing: missing,
		Lambda:  lambda,
		Psi:     psi,
		Degree:  degree,
	}
	ans.Score = ans.Lambda + ans.Psi
	ans.mergeSubstitutions()
	return ans
}

// combo is one combination of per-cluster candidate indices with its
// λ, its conformity sums, and the per-pair (ψ, degree) values they were
// summed from (pv, interleaved), so a successor re-scores only the
// pairs incident to its bumped cluster.
type combo struct {
	idx         []int
	lambda      float64
	psi, degree float64
	pv          []float64
}

// hashIdx identifies a combination by the 64-bit FNV-1a hash of its
// index vector, feeding each index as four little-endian bytes
// (cluster sizes are bounded well below 2^32 by maxCandidatesBound).
// bump ≥ 0 hashes the vector with idx[bump] incremented by one — the
// successor's identity without materialising its slice; bump < 0
// hashes idx as is.
func hashIdx(idx []int, bump int) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i, v := range idx {
		if i == bump {
			v++
		}
		h = (h ^ uint64(v&0xff)) * fnvPrime
		h = (h ^ uint64((v>>8)&0xff)) * fnvPrime
		h = (h ^ uint64((v>>16)&0xff)) * fnvPrime
		h = (h ^ uint64((v>>24)&0xff)) * fnvPrime
	}
	return h
}
