package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sama"
	"sama/client"
	"sama/internal/datasets"
	"sama/internal/obs"
	"sama/internal/rdf"
	"sama/internal/server"
	"sama/internal/workload"
)

const (
	topK         = 10
	batchTriples = 25
	// writerRate is the ingest feed's fixed schedule, batches per second.
	writerRate = 10.0
	// feedWarmup batches of the ingest feed are applied back-to-back
	// during warm-up, so the measured loop sees the feed in steady
	// state. The feed's first batch restates the university node every
	// path reaches and re-enumerates the whole index (about 1 s on 10k
	// triples); that cost stays in setup_s and in the recovery replay.
	feedWarmup = 10
	// setupReps and reopenReps repeat set-up and reopen so their
	// medians are steady; the last set-up is the one measured.
	setupReps  = 3
	reopenReps = 21
	// dataSeed and feedSeed are the LUBM generator seeds of the indexed
	// data and of the ingest feed. They are fixed: the instance is part
	// of each workload's definition (the 10k instance drives Q11-Q12
	// into the combination cap, the 100k one overflows the pool), and
	// other instances change which regime a workload runs in. The
	// workload seed drives the request order and interleaving.
	dataSeed = 1
	feedSeed = 2
	// defaultMaxCombinations is the engine's default search cap
	// (core.Options.MaxCombinations = 0).
	defaultMaxCombinations = 65536
)

// workloadDef is one traffic mix over one generated dataset.
type workloadDef struct {
	name, why string
	triples   int
	queries   []string
	clients   int
	// cold drops every cache before each query (excluded from timing).
	cold bool
	// wal opens the index with a write-ahead log; writer adds the
	// open-loop ingest feed beside the readers.
	wal, writer bool
	// golden names the dataset in golden.json checked at its seed.
	golden string
	// probe is the number of ingest-feed batches in the write probe of
	// a read-only workload (see probeAndReopen): at least 100, for a
	// p90 tail with 10 samples beyond it, and as many more as the
	// run's time allows, for a steadier tail.
	probe int
}

var workloads = []workloadDef{
	{
		name:    "warm-10k",
		why:     "common interactive case: 2 closed-loop clients, Q1-Q10 on LUBM 10k after warm-up; the in-memory cluster phase dominates, no page reads",
		triples: 10_000, queries: qids(1, 10), clients: 2, golden: "lubm-10k", probe: 190,
	},
	{
		name:    "cold-100k",
		why:     "disk-resident index: LUBM 100k against the 8 MiB pool, every cache dropped before each query; storage, postings decode and alignment do the work",
		triples: 100_000, queries: qids(1, 10), clients: 1, cold: true, golden: "lubm-100k", probe: 100,
	},
	{
		name:    "search-10k",
		why:     "search-bound: Q11-Q12 hit the 65,536-combination cap; frontier expansion, psi scoring and the join dominate",
		triples: 10_000, queries: qids(11, 12), clients: 2, golden: "lubm-10k", probe: 190,
	},
	{
		name:    "ingest-10k",
		why:     "write path beside reads: an open-loop writer at 10 batches/s into a WAL index, 1 closed-loop reader, then crash recovery",
		triples: 10_000, queries: qids(1, 10), clients: 1, wal: true, writer: true,
	},
}

func qids(from, to int) []string {
	var ids []string
	for i := from; i <= to; i++ {
		ids = append(ids, fmt.Sprintf("Q%d", i))
	}
	return ids
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// lubmQueries returns the workload queries with the given IDs.
func lubmQueries(ids []string) []workload.Query {
	all := map[string]workload.Query{}
	for _, q := range workload.LUBMQueries() {
		all[q.ID] = q
	}
	out := make([]workload.Query, len(ids))
	for i, id := range ids {
		out[i] = all[id]
	}
	return out
}

// goldenQueries is every query the golden records for a dataset: the
// 10k dataset serves both warm-10k and search-10k.
func goldenQueries(dataset string) []string {
	if dataset == "lubm-10k" {
		return qids(1, 12)
	}
	return qids(1, 10)
}

// goldenRefs computes the reference answers of w's golden dataset.
func goldenRefs(w workloadDef, dir string) (map[string][]answer, error) {
	st, err := createDB(dir+"/ix", datasets.LUBM{}.Generate(w.triples, dataSeed), false)
	if err != nil {
		return nil, err
	}
	defer st.close()
	return references(st, lubmQueries(goldenQueries(w.golden)))
}

func references(st store, qs []workload.Query) (map[string][]answer, error) {
	refs := make(map[string][]answer, len(qs))
	for _, q := range qs {
		as, err := st.reference(context.Background(), q.SPARQL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		refs[q.ID] = as
	}
	return refs, nil
}

type setupTimes struct {
	generate, build, warmup, total time.Duration
}

// bench is one set-up instance of a workload: the data, the opened
// store, the loopback server and the clients that reach it.
type bench struct {
	w       workloadDef
	seed    int64
	base    string
	g       *rdf.Graph
	st      store
	queries []workload.Query
	refs    map[string][]answer
	// lanes are the clients. The untraced run has one, through
	// DB.Serve. The traced run has two on one listener: lane 0 is the
	// engine's own query path, lane 1 the traced layer-by-layer backend.
	lanes     []*client.Client
	transport *http.Transport
	stop      func(context.Context) error
	rec       *recorder
	plain     *plainBackend
	traced    *tracedBackend
	times     setupTimes
	heapMB    float64
	// feed is the rest of the ingest feed after its warm-up batches.
	feed [][]rdf.Triple
	// wrong lists the client answers of the warm-up that differed from
	// the in-process references.
	wrong []string
}

// setup generates the data, builds and opens the index, starts the
// server and warms up: every query of the mix once in-process (the
// reference answers) and once through each client lane.
func setup(w workloadDef, seed int64, base string, traced bool) (*bench, error) {
	b := &bench{w: w, seed: seed, base: base, queries: lubmQueries(w.queries)}
	start := time.Now()
	b.g = datasets.LUBM{}.Generate(w.triples, dataSeed)
	if w.writer {
		b.feed = ingestBatches(w.triples)
	}
	b.times.generate = time.Since(start)

	t := time.Now()
	var err error
	if traced {
		err = b.startTraced()
	} else {
		err = b.startPublic()
	}
	if err != nil {
		b.teardown()
		return nil, err
	}
	b.times.build = time.Since(t)

	t = time.Now()
	if b.refs, err = references(b.st, b.queries); err != nil {
		b.teardown()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ctx := context.Background()
	for li, c := range b.lanes {
		for _, q := range b.queries {
			resp, err := c.Query(ctx, q.SPARQL, client.QueryOptions{K: topK})
			if err != nil {
				b.teardown()
				return nil, fmt.Errorf("warm-up %s on lane %d: %w", q.ID, li, err)
			}
			if err := sameAnswers(fromWire(resp.Answers), b.refs[q.ID]); err != nil {
				b.wrong = append(b.wrong, fmt.Sprintf("warm-up %s on lane %d: %v", q.ID, li, err))
			}
		}
	}
	if w.writer {
		for _, batch := range b.feed[:feedWarmup] {
			if err := b.st.insert(batch); err != nil {
				b.teardown()
				return nil, fmt.Errorf("warm-up insert: %w", err)
			}
		}
		b.feed = b.feed[feedWarmup:]
	}
	b.times.warmup = time.Since(t)
	b.times.total = time.Since(start)

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.heapMB = float64(m.HeapAlloc) / (1 << 20)
	return b, nil
}

// newClient returns a client over the bench's transport; the traced
// run wraps it to carry span IDs and count response bytes.
func (b *bench) newClient(url string) *client.Client {
	c := client.New(url)
	var rt http.RoundTripper = b.transport
	if b.rec != nil {
		rt = benchTransport{base: b.transport}
	}
	c.HTTP = &http.Client{Transport: rt}
	return c
}

// startPublic opens the index through sama.Create and serves it with
// DB.Serve — the path a samad user takes.
func (b *bench) startPublic() error {
	st, err := createDB(b.base, b.g, b.w.wal)
	if err != nil {
		return err
	}
	b.st = st
	srv, err := st.serve(sama.ServerOptions{})
	if err != nil {
		return err
	}
	b.stop = srv.Shutdown
	b.transport = &http.Transport{MaxIdleConnsPerHost: 4}
	b.lanes = []*client.Client{b.newClient("http://" + srv.Addr())}
	return nil
}

// startTraced builds the same index through index.Build and core.New
// and serves both lanes of the traced run through server.New.
func (b *bench) startTraced() error {
	st, err := createIx(b.base, b.g, b.w.wal)
	if err != nil {
		return err
	}
	b.st = st
	b.rec = newRecorder()
	b.plain = &plainBackend{st: st}
	b.traced = &tracedBackend{st: st, rec: b.rec}
	debug := obs.DebugMux(st.reg, obs.NewQueryLog(1), obs.NewEventLog(1))
	mux := http.NewServeMux()
	mux.Handle("/plain/", http.StripPrefix("/plain", server.New(server.Backend{
		Query: b.plain.query, Debug: debug, Metrics: st.reg,
	}, server.Options{})))
	mux.Handle("/traced/", http.StripPrefix("/traced", server.New(server.Backend{
		Query: b.traced.query, Debug: debug,
	}, server.Options{})))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: spanMiddleware(mux), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	b.stop = func(ctx context.Context) error {
		err := srv.Shutdown(ctx)
		<-done
		return err
	}
	b.transport = &http.Transport{MaxIdleConnsPerHost: 4}
	url := "http://" + ln.Addr().String()
	b.lanes = []*client.Client{b.newClient(url + "/plain"), b.newClient(url + "/traced")}
	return nil
}

// stopServing shuts the server down and drops idle connections.
func (b *bench) stopServing() {
	if b.stop != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		b.stop(ctx)
		cancel()
		b.stop = nil
	}
	if b.transport != nil {
		b.transport.CloseIdleConnections()
	}
}

// teardown stops serving and closes the store.
func (b *bench) teardown() {
	b.stopServing()
	if b.st != nil {
		b.st.close()
		b.st = nil
	}
}

// removeIndex deletes the index files at base, so the kernel drops
// their unwritten pages instead of writing them back during a later
// measurement.
func removeIndex(base string) {
	matches, _ := filepath.Glob(base + ".*")
	for _, m := range matches {
		os.RemoveAll(m)
	}
}

// ingestBatches is the ingest feed: triples of a second LUBM instance
// in fixed-size batches. The instances share their entity IRIs, so the
// batches connect into the indexed graph. The first feedWarmup batches
// are the ones applied during the ingest workload's warm-up.
func ingestBatches(triples int) [][]rdf.Triple {
	ts := datasets.LUBM{}.Generate(triples, feedSeed).Triples()
	var out [][]rdf.Triple
	for i := 0; (i+1)*batchTriples <= len(ts); i++ {
		out = append(out, ts[i*batchTriples:(i+1)*batchTriples])
	}
	return out
}

// reopen opens the index at base the way the run's store was built and
// recovers it with g. It returns the store and the replay statistics.
func reopen(traced bool, base string, g *rdf.Graph) (store, sama.RecoveryStats, error) {
	if traced {
		st, rs, err := openIx(base, g)
		if err != nil {
			return nil, rs, err
		}
		return st, rs, nil
	}
	st, rs, err := openDB(base, g)
	if err != nil {
		return nil, rs, err
	}
	return st, rs, nil
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	return s[(len(s)-1)/2]
}
