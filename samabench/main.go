// Command samabench is the repository's end-to-end benchmark. It
// generates LUBM data from a seed, builds an index, serves it on a
// loopback samad handler and drives it through the public Go client,
// then checks every answer and prints one JSON result line:
//
//	samabench --workload warm-10k --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 serves the same
// requests through a backend that calls each layer in turn inside its
// own spans and reports the per-layer metrics. --profile DIR writes CPU
// and heap profiles of the measured loop only. The compare subcommand
// contrasts two result directories:
//
//	samabench compare RESULTS_A RESULTS_B
//
// NOTES.md explains the workloads and how the metrics relate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sama"
	"sama/client"
	"sama/internal/datasets"
	"sama/internal/obs"
)

// schemaVersion versions the result files.
const schemaVersion = 1

// workRoot holds the indexes of running benchmarks; resultsRoot the
// result files. Both live in the build directory of the checkout.
var (
	workRoot    = filepath.Join(".bench_build", "work")
	resultsRoot = filepath.Join(".bench_build", "results")
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("samabench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: warm-10k, cold-100k, search-10k, ingest-10k, or all")
	seed := fs.Int64("seed", 1, "seed of the request order")
	seconds := fs.Int("seconds", 10, "length of the measured loop")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	out := fs.String("out", resultsRoot, "directory for the result file (and spans when tracing)")
	profile := fs.String("profile", "", "directory for CPU and heap profiles of the measured loop")
	golden := fs.String("write-golden", "", "write the golden answers to this file and exit")
	fs.Parse(os.Args[1:])

	if *golden != "" {
		if err := os.MkdirAll(workRoot, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "samabench:", err)
			os.Exit(2)
		}
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "samabench:", err)
			os.Exit(2)
		}
		return
	}
	if *name == "all" {
		os.Exit(runAll(fs))
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "samabench: need --workload (one of %s, or all), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "samabench:", err)
		os.Exit(2)
	}
	res.Seconds = *seconds
	if err := res.write(*out); err != nil {
		fmt.Fprintln(os.Stderr, "samabench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.printed()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "samabench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in turn, each in its own process so one
// run's heap and abandoned handles cannot skew the next. It returns the
// highest exit code.
func runAll(fs *flag.FlagSet) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "samabench:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		args := []string{"--workload", w.name}
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			c := 2
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				c = ee.ExitCode()
			}
			fmt.Fprintf(os.Stderr, "samabench: %s: %v\n", w.name, err)
			code = max(code, c)
		}
	}
	return code
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is recorded in every result file.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Tracing    bool   `json:"tracing"`
	// WALPolicy states the write-ahead log's flush policy when the
	// workload has one.
	WALPolicy string `json:"wal_policy,omitempty"`
}

// result is one run's record, written as a result file.
type result struct {
	Schema   int         `json:"schema_version"`
	Workload string      `json:"workload"`
	Why      string      `json:"why"`
	Seed     int64       `json:"seed"`
	DataSeed int64       `json:"data_seed"`
	Seconds  int         `json:"seconds"`
	Env      environment `json:"env"`
	// Triples is the generated data size; TriplesIndexed the statements
	// indexed when the measured loop ended.
	Triples        int                    `json:"triples"`
	TriplesIndexed int                    `json:"triples_indexed"`
	Samples        map[string]int         `json:"samples"`
	Correct        bool                   `json:"correct"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	Failures       map[string]int         `json:"failures"`
	Errors         []string               `json:"errors,omitempty"`
	Tails          map[string]tail        `json:"tails"`
	Recovery       *sama.RecoveryStats    `json:"recovery,omitempty"`
	EndToEnd       map[string]metricValue `json:"end_to_end"`
	PerLayer       map[string]metricValue `json:"per_layer,omitempty"`
	spans          *recorder
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "check failed:", msg)
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, msg)
	}
}

// set records a metric in its set, end-to-end or per-layer.
func (r *result) set(name string, v float64) {
	m, ok := metricByName(name)
	if !ok {
		panic("samabench: unknown metric " + name)
	}
	if isEndToEnd(name) {
		r.EndToEnd[name] = metricValue{Value: v, Unit: m.unit}
	} else {
		r.PerLayer[name] = metricValue{Value: v, Unit: m.unit}
	}
}

// printed is the metric set of the result line: end-to-end for the
// untraced run, per-layer for the traced one.
func (r *result) printed() map[string]metricValue {
	if r.Env.Tracing {
		return r.PerLayer
	}
	return r.EndToEnd
}

func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, boolInt(r.Env.Tracing)))
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if r.spans != nil {
		return r.spans.writeSpans(stem + ".spans.jsonl")
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run sets the workload up setupReps times, measures the last set-up
// for d, runs the post-loop phase (write probe and reopen, or crash
// recovery) and computes the metrics.
func run(w workloadDef, seed int64, d time.Duration, traced bool, profileDir string) (*result, error) {
	res := &result{
		Schema: schemaVersion, Workload: w.name, Why: w.why, Seed: seed, DataSeed: dataSeed, Triples: w.triples,
		Env: environment{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Tracing: traced,
		},
		Samples: map[string]int{}, Correct: true, Failures: map[string]int{},
		Tails: map[string]tail{}, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{},
	}
	if w.wal {
		res.Env.WALPolicy = "fsync per commit with group commit; automatic checkpoint at the 16 MiB default"
	}
	work := filepath.Join(workRoot, fmt.Sprintf("%s-s%d-t%d-p%d", w.name, seed, boolInt(traced), os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var b *bench
	var setups []setupTimes
	for r := 0; r < setupReps; r++ {
		if b != nil {
			b.teardown()
			removeIndex(b.base)
		}
		fmt.Fprintf(os.Stderr, "%s: set-up %d/%d\n", w.name, r+1, setupReps)
		nb, err := setup(w, seed, filepath.Join(work, fmt.Sprintf("ix%d", r)), traced)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b = nb
		setups = append(setups, b.times)
		fmt.Fprintf(os.Stderr, "%s: set-up %d took %v, heap %.1f MiB\n", w.name, r+1, b.times.total.Round(time.Millisecond), b.heapMB)
	}
	res.Samples["setups"] = len(setups)
	for _, msg := range b.wrong {
		res.fail("%s", msg)
	}
	if w.golden != "" {
		if err := checkGolden(w.golden, b.refs); err != nil {
			res.fail("%v", err)
		}
	}
	m := newMeter(b)
	if traced {
		// Only the measured loop's requests count.
		b.rec.reset()
		b.traced.take()
		b.plain.take()
	}

	stopProfile, err := startProfile(profileDir, w.name, seed)
	if err != nil {
		b.teardown()
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: measuring for %v\n", w.name, d)
	ctx := context.Background()
	start := time.Now()
	var writes []insertSample
	writerDone := make(chan struct{})
	if w.writer {
		go func() {
			defer close(writerDone)
			writes = b.runWriter(b.feed, writerRate, start, start.Add(d))
		}()
	} else {
		close(writerDone)
	}
	loop := b.runQueries(ctx, d)
	<-writerDone
	var layers []layerSample
	var plans []*obs.Trace
	if traced {
		layers, plans = b.traced.take(), b.plain.take()
	}
	if err := stopProfile(); err != nil {
		b.teardown()
		return nil, err
	}
	m.finish(b)
	res.TriplesIndexed = b.st.triples()
	bytesPerTriple := float64(indexFiles(b.base)) / float64(res.TriplesIndexed)

	var recovery time.Duration
	if w.writer {
		recovery, err = b.crashAndRecover(res, traced)
	} else {
		writes, recovery, err = b.probeAndReopen(res, traced)
	}
	if err != nil {
		b.teardown()
		return nil, err
	}
	b.teardown()

	res.endToEnd(setups, loop, writes, recovery, b.heapMB, bytesPerTriple)
	if traced {
		res.perLayer(b, m, setups, loop, writes, layers, plans)
		res.spans = b.rec
	}
	return res, nil
}

// startProfile starts a CPU profile of the measured loop when dir is
// set; the returned function stops it and writes the heap profile.
func startProfile(dir, name string, seed int64) (func() error, error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	f, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		h, err := os.Create(stem + ".heap.pprof")
		if err != nil {
			return err
		}
		if err := pprof.Lookup("heap").WriteTo(h, 0); err != nil {
			h.Close()
			return err
		}
		return h.Close()
	}, nil
}

// crashAndRecover ends the ingest workload: with the writer stopped it
// checks that the client answers match in-process answers, abandons
// the handle without Close, and times reopen + Recover over the WAL.
// Answers to every LUBM query after recovery must equal those before.
func (b *bench) crashAndRecover(res *result, traced bool) (time.Duration, error) {
	all := lubmQueries(qids(1, 12))
	before, err := references(b.st, all)
	if err != nil {
		return 0, err
	}
	b.refs = before
	ctx := context.Background()
	for lane := range b.lanes {
		for _, q := range b.queries {
			resp, err := b.lanes[lane].Query(ctx, q.SPARQL, client.QueryOptions{K: topK})
			if err == nil {
				err = sameAnswers(fromWire(resp.Answers), before[q.ID])
			}
			if err != nil {
				res.fail("after ingest, %s on lane %d differs from in-process answers: %v", q.ID, lane, err)
			}
		}
	}
	b.stopServing()
	b.st = nil // abandoned: no Close, no checkpoint

	// Recover takes the graph the index was built from; the sidecar
	// and the log add the inserts.
	fresh := datasets.LUBM{}.Generate(b.w.triples, dataSeed)
	runtime.GC()
	id, s0 := b.rec.begin()
	t := time.Now()
	st, rs, err := reopen(traced, b.base, fresh)
	recovery := time.Since(t)
	b.rec.end(id, 0, "index.recover", s0)
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	defer st.close()
	res.Recovery = &rs
	after, err := references(st, all)
	if err != nil {
		return 0, err
	}
	for _, q := range all {
		if err := sameAnswers(after[q.ID], before[q.ID]); err != nil {
			res.fail("after Recover, %s differs from before the crash: %v", q.ID, err)
		}
	}
	res.Samples["recoveries"] = 1
	return recovery, nil
}

// probeAndReopen ends a read-only workload. Every workload reports
// every end-to-end metric, so after the measured loop the read-only
// workloads time the write path at their data scale: w.probe batches of
// the ingest feed, past its warm-up batches, inserted back-to-back with
// no readers and no write-ahead log (insert_*: service time). Then the
// index is closed and reopened reopenReps times (recovery_s: restart
// time, with no log to replay). Answers after reopening must equal
// those before, so the probe's inserts must survive Close.
func (b *bench) probeAndReopen(res *result, traced bool) ([]insertSample, time.Duration, error) {
	feed := ingestBatches(b.w.triples)[feedWarmup:][:b.w.probe]
	// Collect the query loop's garbage first, so the probe and the
	// reopens do not pay for it.
	runtime.GC()
	writes := b.runWriter(feed, 0, time.Now(), time.Time{})
	before, err := references(b.st, b.queries)
	if err != nil {
		return nil, 0, err
	}
	b.teardown()
	var ds []time.Duration
	for r := 0; r < reopenReps; r++ {
		// A restarted samad starts with an empty heap: collect the
		// garbage of the run and of the last reopen first.
		runtime.GC()
		id, s0 := b.rec.begin()
		t := time.Now()
		st, rs, err := reopen(traced, b.base, b.g)
		ds = append(ds, time.Since(t))
		b.rec.end(id, 0, "index.recover", s0)
		if err != nil {
			return nil, 0, fmt.Errorf("reopen: %w", err)
		}
		res.Recovery = &rs
		if r == 0 {
			after, err := references(st, b.queries)
			if err != nil {
				st.close()
				return nil, 0, err
			}
			for _, q := range b.queries {
				if err := sameAnswers(after[q.ID], before[q.ID]); err != nil {
					res.fail("after reopen, %s differs from before: %v", q.ID, err)
				}
			}
		}
		if err := st.close(); err != nil {
			return nil, 0, err
		}
	}
	res.Samples["reopens"] = len(ds)
	return writes, medianDur(ds), nil
}
