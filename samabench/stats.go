package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. The end-to-end set is what the
// untraced run prints; the per-layer set is what the traced run prints.
// BENCHMARK.json lists the same names, units and directions.
type metricDef struct {
	name, unit string
	higher     bool // true when a larger value is better
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", false},
	{"query_p50_ms", "ms", false},
	{"query_tail_ms", "ms", false},
	{"queries_per_s", "1/s", true},
	{"query_success_rate", "ratio", true},
	{"insert_p50_ms", "ms", false},
	{"insert_tail_ms", "ms", false},
	{"recovery_s", "s", false},
	{"heap_mb", "MiB", false},
	{"index_bytes_per_triple", "B", false},
}

var perLayerMetrics = []metricDef{
	{"client.self_ms", "ms", false},
	{"server.overhead_ms", "ms", false},
	{"server.queue_ms", "ms", false},
	{"server.response_bytes", "B", false},
	{"server.backend_self_us", "us", false},
	{"sparql.parse_us", "us", false},
	{"core.decompose_us", "us", false},
	{"core.query_paths", "count", false},
	{"core.cluster_ms", "ms", false},
	{"core.cluster.retrieved", "count", false},
	{"core.cluster.kept", "count", false},
	{"core.cluster.sig_reject_rate", "ratio", true},
	{"core.cluster.bound_prune_rate", "ratio", true},
	{"core.cluster.short_pruned", "count", true},
	{"core.cluster.memo_hit_rate", "ratio", true},
	{"align.alignments", "count", false},
	{"cache.align.hit_rate", "ratio", true},
	{"cache.align.invalidations", "count", false},
	{"cache.align.evictions", "count", false},
	{"index.postings_lookup_us", "us", false},
	{"index.postings_ids", "count", false},
	{"index.batched_pages", "count", false},
	{"storage.page_reads", "count", false},
	{"storage.pool_miss_rate", "ratio", false},
	{"storage.evictions", "count", false},
	{"core.search_ms", "ms", false},
	{"core.search.visited", "count", false},
	{"core.search.cap_hit_share", "ratio", false},
	{"core.search.bound_break_share", "ratio", true},
	{"core.search.psi_scored", "count", false},
	{"core.search.psi_memo_hit_rate", "ratio", true},
	{"core.search.frontier_peak", "count", false},
	{"core.search.joined", "count", false},
	{"index.insert_ms", "ms", false},
	{"load.writer_lag_ms", "ms", false},
	{"wal.bytes_per_triple", "B", false},
	{"wal.syncs_per_batch", "count", false},
	{"core.restarts_per_query", "count", false},
	{"recover.triples_per_s", "1/s", true},
	{"setup.generate_s", "s", false},
	{"setup.build_s", "s", false},
	{"setup.warmup_s", "s", false},
	{"runtime.alloc_bytes_per_query", "B", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"trace.overhead_ms", "ms", false},
}

// metricByName looks a metric up in both sets.
func metricByName(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, m := range set {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

func isEndToEnd(name string) bool {
	for _, m := range endToEndMetrics {
		if m.name == name {
			return true
		}
	}
	return false
}

// quantile returns the nearest-rank q-quantile of xs (0 for none). xs
// is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the latency at the highest of p99, p95, p90, p75 and p50 that
// leaves at least ten samples beyond it: p99 from 1,000 samples, p95
// from 200, p90 from 100, and so on down. Below 20 samples it falls
// back to p50.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

func tailOf(xs []float64) tail {
	n := len(xs)
	t := tail{Percentile: 50, Samples: n}
	for _, p := range []float64{99, 95, 90, 75, 50} {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			t.Percentile = p
			break
		}
	}
	t.Value = quantile(xs, t.Percentile/100)
	t.Beyond = n - int(math.Ceil(t.Percentile/100*float64(n)))
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
