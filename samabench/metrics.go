package main

import (
	"bufio"
	"context"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sama/internal/cache"
	"sama/internal/obs"
	"sama/internal/storage"
)

// snapshot is the counters the program exposes, read at one instant.
type snapshot struct {
	pool    storage.PoolStats
	align   cache.Stats
	wal     storage.WALStats
	mem     runtime.MemStats
	metrics map[string]float64 // /metrics families, summed over labels
}

func takeSnapshot(b *bench) snapshot {
	var s snapshot
	s.pool = b.st.poolStats()
	s.align = b.st.cacheStats()["align"]
	s.wal, _ = b.st.walStats()
	runtime.ReadMemStats(&s.mem)
	if b.rec != nil {
		// The traced run scrapes /metrics through the plain lane's
		// client, as an operator would.
		if text, err := b.lanes[0].Metrics(context.Background()); err == nil {
			s.metrics = parseProm(text)
		}
	}
	return s
}

// parseProm sums every sample of each metric family in a Prometheus
// text exposition.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err == nil {
			out[strings.TrimSpace(name)] += v
		}
	}
	return out
}

// maxClockGap bounds the time between a traced request's root span
// clock reads and the client's own.
const maxClockGap = 2 * time.Millisecond

// meter holds the snapshots around the measured loop.
type meter struct{ before, after snapshot }

func newMeter(b *bench) *meter { return &meter{before: takeSnapshot(b)} }

func (m *meter) finish(b *bench) { m.after = takeSnapshot(b) }

// endToEnd computes the metrics a user of the system sees.
func (r *result) endToEnd(setups []setupTimes, loop loopResult, writes []insertSample, recovery time.Duration, heapMB, bytesPerTriple float64) {
	var total []time.Duration
	for _, s := range setups {
		total = append(total, s.total)
	}
	r.set("setup_s", medianDur(total).Seconds())

	var lat []float64
	correct := 0
	for _, s := range loop.samples {
		if s.fail != "" {
			r.Failures[s.fail]++
			if s.fail == failWrong {
				r.fail("a query answer differed from the reference")
			}
			continue
		}
		correct++
		lat = append(lat, ms(s.lat))
	}
	r.Samples["queries"] = len(loop.samples)
	r.Samples["queries_correct"] = correct
	qt := tailOf(lat)
	r.Tails["query"] = qt
	r.set("query_p50_ms", median(lat))
	r.set("query_tail_ms", qt.Value)
	r.set("queries_per_s", ratio(float64(correct), loop.wall.Seconds()))
	r.set("query_success_rate", ratio(float64(correct), float64(len(loop.samples))))

	var ins, lag []float64
	failedInserts := 0
	for _, w := range writes {
		if w.err != nil {
			failedInserts++
			continue
		}
		ins = append(ins, ms(w.latency))
		lag = append(lag, ms(w.lag))
	}
	if failedInserts > 0 {
		r.Failures["insert_error"] = failedInserts
	}
	r.Samples["inserts"] = len(writes)
	it := tailOf(ins)
	r.Tails["insert"] = it
	r.Tails["writer_lag"] = tailOf(lag)
	r.set("insert_p50_ms", median(ins))
	r.set("insert_tail_ms", it.Value)
	r.set("recovery_s", recovery.Seconds())
	r.set("heap_mb", heapMB)
	r.set("index_bytes_per_triple", bytesPerTriple)

	r.Attempted = len(loop.samples) + len(writes)
	r.Failed = len(loop.samples) - correct + failedInserts
	if r.Attempted == 0 {
		r.fail("no operation completed")
	}
}

// perLayer computes the traced run's per-layer metrics.
func (r *result) perLayer(b *bench, m *meter, setups []setupTimes, loop loopResult, writes []insertSample, layers []layerSample, plans []*obs.Trace) {
	queries := float64(len(loop.samples))
	perQuery := func(v float64) float64 { return ratio(v, queries) }

	// Client and server: lane 0 is the engine's own path, so its
	// response stats are the engine's; lane 1 is the traced backend.
	// The tracing overhead compares the lanes without the traced lane's
	// postings probes, which the plain lane does not run.
	probe := make(map[uint64]time.Duration, len(layers))
	for _, l := range layers {
		probe[l.root] = l.postings
	}
	var overhead, queue, respBytes, plainLat, tracedLat []float64
	for _, s := range loop.samples {
		if s.fail != "" {
			continue
		}
		if s.lane == 0 {
			overhead = append(overhead, ms(s.lat)-float64(s.elapsedNS+s.queueNS)/1e6)
			queue = append(queue, float64(s.queueNS)/1e6)
			respBytes = append(respBytes, float64(s.bytes))
			plainLat = append(plainLat, ms(s.lat))
		} else {
			tracedLat = append(tracedLat, ms(s.lat-probe[s.span]))
		}
	}
	r.set("server.overhead_ms", median(overhead))
	r.set("server.queue_ms", median(queue))
	r.set("server.response_bytes", median(respBytes))
	r.set("trace.overhead_ms", median(tracedLat)-median(plainLat))
	r.Samples["queries_plain_lane"] = len(plainLat)
	r.Samples["queries_traced_lane"] = len(tracedLat)

	// Span self times, and the check that they add up to the latency
	// the client measured on its own clock. Each request's root span
	// opens just before the client's clock read and closes just after
	// the next, so the sum may exceed the latency by those gaps only.
	// Every request must reach the server under its root, and its
	// spans must nest without gaps counted twice or lost.
	tr := b.rec.tree()
	var clientSelf, backendSelf []float64
	bad, gapMax := 0, int64(0)
	for _, s := range loop.samples {
		if s.lane != 1 {
			continue
		}
		root, ok := tr.byID[s.span]
		kids := tr.children[s.span]
		served := len(kids) == 1 && kids[0].Name == "server.backend"
		if !ok || !tr.nested(root) || (s.fail == "" && !served) {
			bad++
			continue
		}
		gap := tr.sumSelf(root) - int64(s.lat)
		gapMax = max(gapMax, gap)
		if gap < 0 || gap > int64(maxClockGap) {
			bad++
			continue
		}
		if s.fail == "" {
			clientSelf = append(clientSelf, float64(tr.self(root))/1e6)
			backendSelf = append(backendSelf, float64(tr.self(kids[0]))/1e3)
		}
	}
	if bad > 0 {
		r.fail("%d traced requests whose span self times do not sum to their latency", bad)
	}
	r.Samples["spans"] = len(tr.byID)
	r.Samples["span_clock_gap_max_ns"] = int(gapMax)
	r.set("client.self_ms", median(clientSelf))
	r.set("server.backend_self_us", median(backendSelf))

	// Layer calls of the traced backend.
	var parse, decompose, postings, cluster, search []float64
	var qpaths, retrieved, kept, postingIDs, restarts float64
	for _, s := range layers {
		parse = append(parse, us(s.parse))
		decompose = append(decompose, us(s.decompose))
		postings = append(postings, us(s.postings))
		cluster = append(cluster, ms(s.cluster))
		search = append(search, ms(s.search))
		qpaths += float64(s.queryPaths)
		retrieved += float64(s.retrieved)
		kept += float64(s.kept)
		postingIDs += float64(s.postingIDs)
		restarts += float64(s.restarts)
	}
	n := float64(len(layers))
	r.set("sparql.parse_us", median(parse))
	r.set("core.decompose_us", median(decompose))
	r.set("core.query_paths", ratio(qpaths, n))
	r.set("index.postings_lookup_us", median(postings))
	r.set("index.postings_ids", ratio(postingIDs, n))
	r.set("core.cluster_ms", median(cluster))
	r.set("core.cluster.retrieved", ratio(retrieved, n))
	r.set("core.cluster.kept", ratio(kept, n))
	r.set("core.search_ms", median(search))

	// Explain-plan counters of the plain lane.
	pc := sumPlans(plans, defaultMaxCombinations)
	pq := float64(pc.queries)
	r.set("core.cluster.sig_reject_rate", ratio(float64(pc.sigRejected), float64(pc.sigRejected+pc.preranked)))
	r.set("core.cluster.bound_prune_rate", ratio(float64(pc.boundPruned), float64(pc.preranked-pc.memoHits)))
	r.set("core.cluster.short_pruned", ratio(float64(pc.shortPruned), pq))
	r.set("core.cluster.memo_hit_rate", ratio(float64(pc.memoHits), float64(pc.preranked)))
	r.set("align.alignments", ratio(float64(pc.aligned), pq))
	r.set("core.search.visited", ratio(float64(pc.visited), pq))
	r.set("core.search.cap_hit_share", ratio(float64(pc.capHits), pq))
	r.set("core.search.bound_break_share", ratio(float64(pc.boundBreaks), pq))
	r.set("core.search.psi_scored", ratio(float64(pc.psiScored), pq))
	r.set("core.search.psi_memo_hit_rate", ratio(float64(pc.psiMemoHits), float64(pc.psiMemoHits+pc.psiScored)))
	r.set("core.search.frontier_peak", ratio(float64(pc.frontierPeak), pq))
	r.set("core.search.joined", ratio(float64(pc.joined), pq))
	r.Samples["plans"] = pc.queries

	// Counters read before and after the measured loop.
	bf, af := m.before, m.after
	hits := float64(af.align.Hits - bf.align.Hits)
	misses := float64(af.align.Misses - bf.align.Misses)
	r.set("cache.align.hit_rate", ratio(hits, hits+misses))
	r.set("cache.align.invalidations", perQuery(float64(af.align.Invalidations-bf.align.Invalidations)))
	r.set("cache.align.evictions", perQuery(float64(af.align.Evictions-bf.align.Evictions)))
	reads := float64(af.pool.Hits+af.pool.Misses) - float64(bf.pool.Hits+bf.pool.Misses)
	r.set("storage.page_reads", perQuery(reads))
	r.set("storage.pool_miss_rate", ratio(float64(af.pool.Misses-bf.pool.Misses), reads))
	r.set("storage.evictions", perQuery(float64(af.pool.Evictions-bf.pool.Evictions)))
	prom := func(name string) float64 { return af.metrics[name] - bf.metrics[name] }
	r.set("index.batched_pages", perQuery(prom("sama_index_batched_read_pages_total")))
	r.set("core.restarts_per_query", perQuery(prom("sama_query_restarts_total")+restarts))
	r.set("runtime.alloc_bytes_per_query", perQuery(float64(af.mem.TotalAlloc-bf.mem.TotalAlloc)))
	r.set("runtime.gc_cycles", float64(af.mem.NumGC-bf.mem.NumGC))
	r.set("runtime.gc_pause_ms", float64(af.mem.PauseTotalNs-bf.mem.PauseTotalNs)/1e6)

	// Write path.
	var service, lag []float64
	inserted := 0
	for _, w := range writes {
		if w.err == nil {
			service = append(service, ms(w.service))
			lag = append(lag, ms(w.lag))
			inserted++
		}
	}
	r.set("index.insert_ms", median(service))
	r.set("load.writer_lag_ms", tailOf(lag).Value)
	if b.w.writer {
		r.set("wal.bytes_per_triple", ratio(float64(af.wal.AppendedBytes-bf.wal.AppendedBytes), float64(inserted*batchTriples)))
		r.set("wal.syncs_per_batch", ratio(float64(af.wal.Syncs-bf.wal.Syncs), float64(inserted)))
	} else {
		r.set("wal.bytes_per_triple", 0)
		r.set("wal.syncs_per_batch", 0)
	}
	rate := 0.0
	if rs := r.Recovery; rs != nil && rs.Replay > 0 {
		rate = float64(rs.Triples) / rs.Replay.Seconds()
	}
	r.set("recover.triples_per_s", rate)

	var gen, build, warm []time.Duration
	for _, s := range setups {
		gen = append(gen, s.generate)
		build = append(build, s.build)
		warm = append(warm, s.warmup)
	}
	r.set("setup.generate_s", medianDur(gen).Seconds())
	r.set("setup.build_s", medianDur(build).Seconds())
	r.set("setup.warmup_s", medianDur(warm).Seconds())
}
