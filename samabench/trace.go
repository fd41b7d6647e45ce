package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sama/internal/core"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/server"
	"sama/internal/sparql"
)

// span is one timed call into a layer. Spans of one request share the
// root's ID through their parent links; times are nanoseconds since the
// recorder's origin, on the monotonic clock.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run pays only a nil check.
type recorder struct {
	origin time.Time
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// reset drops the spans recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// begin opens a span and returns its ID and start time.
func (r *recorder) begin() (uint64, int64) {
	if r == nil {
		return 0, 0
	}
	return r.next.Add(1), r.now()
}

// end closes the span opened by begin and returns its duration.
func (r *recorder) end(id, parent uint64, name string, start int64) time.Duration {
	if r == nil {
		return 0
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start, End: r.now()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return time.Duration(s.End - s.Start)
}

// do runs fn inside a span under parent and returns the span's
// duration.
func (r *recorder) do(parent uint64, name string, fn func()) time.Duration {
	if r == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id, start := r.begin()
	fn()
	return r.end(id, parent, name, start)
}

// spanTree indexes the recorded spans by ID and by parent.
type spanTree struct {
	byID     map[uint64]span
	children map[uint64][]span
}

func (r *recorder) tree() spanTree {
	t := spanTree{byID: make(map[uint64]span, len(r.spans)), children: map[uint64][]span{}}
	for _, s := range r.spans {
		t.byID[s.ID] = s
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// nested reports whether every span under s lies within its parent and
// no two siblings overlap, so that no time is lost or counted twice.
func (t spanTree) nested(s span) bool {
	kids := append([]span(nil), t.children[s.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	prevEnd := s.Start
	for _, k := range kids {
		if k.Start < prevEnd || k.End < k.Start || k.End > s.End || !t.nested(k) {
			return false
		}
		prevEnd = k.End
	}
	return true
}

// self is the span's duration minus the time its children cover.
func (t spanTree) self(s span) int64 {
	d := s.End - s.Start
	for _, k := range t.children[s.ID] {
		d -= k.End - k.Start
	}
	return d
}

// sumSelf is the sum of the self times of s and every span under it.
func (t spanTree) sumSelf(s span) int64 {
	total := t.self(s)
	for _, k := range t.children[s.ID] {
		total += t.sumSelf(k)
	}
	return total
}

// writeSpans dumps the spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The request's root span ID travels from the client to the server in
// a header: the client transport copies it out of the request context,
// and the server middleware puts it back into the context the backend
// receives.
const spanHeader = "Samabench-Span"

type spanKey struct{}
type bytesKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// benchTransport stamps the span header and counts response body bytes
// into the *int64 the request context carries.
type benchTransport struct{ base http.RoundTripper }

func (t benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id := spanFrom(req.Context()); id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := t.base.RoundTrip(req)
	if n, ok := req.Context().Value(bytesKey{}).(*int64); ok && resp != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	k, err := c.ReadCloser.Read(p)
	*c.n += int64(k)
	return k, err
}

func spanMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(spanHeader); v != "" {
			if id, err := strconv.ParseUint(v, 10, 64); err == nil {
				r = r.WithContext(withSpan(r.Context(), id))
			}
		}
		h.ServeHTTP(w, r)
	})
}

// maxStaleRetries mirrors the engine's restart budget for ErrStaleRead.
const maxStaleRetries = 8

// layerSample is what the traced backend learns about one request from
// the layers' return values.
type layerSample struct {
	// root is the client.request span the request hangs under.
	root                                        uint64
	parse, decompose, postings, cluster, search time.Duration
	queryPaths, retrieved, kept, postingIDs     int
	restarts                                    int
}

// tracedBackend answers queries by calling each layer's public
// function in the engine's order, one span per call, then probes the
// postings of the query's constants.
type tracedBackend struct {
	st  *ixStore
	rec *recorder

	mu      sync.Mutex
	samples []layerSample
}

func (b *tracedBackend) query(ctx context.Context, src string, k int) (*server.QueryOutcome, error) {
	parent := spanFrom(ctx)
	id, start := b.rec.begin()
	ls := layerSample{root: parent}
	var parsed *sparql.Query
	var err error
	ls.parse = b.rec.do(id, "sparql.parse", func() { parsed, err = sparql.Parse(src) })
	if err != nil {
		b.rec.end(id, parent, "server.backend", start)
		return nil, &server.BadRequestError{Err: err}
	}
	if parsed.Limit > 0 {
		k = parsed.Limit
	}
	eng := b.st.eng
	var pre *core.Preprocessed
	ls.decompose = b.rec.do(id, "core.decompose", func() { pre = eng.Preprocess(parsed.Pattern) })
	ls.queryPaths = len(pre.Paths)
	var clusters []core.Cluster
	for {
		ls.cluster += b.rec.do(id, "core.cluster", func() { clusters, err = eng.ClusterContext(ctx, pre) })
		if errors.Is(err, index.ErrStaleRead) && ls.restarts < maxStaleRetries && ctx.Err() == nil {
			ls.restarts++
			continue
		}
		break
	}
	if err != nil {
		b.rec.end(id, parent, "server.backend", start)
		return nil, err
	}
	for _, c := range clusters {
		ls.retrieved += c.Retrieved
		ls.kept += len(c.Items)
	}
	var answers []core.Answer
	ls.search = b.rec.do(id, "core.search", func() { answers = eng.SearchContext(ctx, pre, clusters, k) })
	// The postings probes run last, so the pages they touch cannot warm
	// the pool for the cluster phase of a cold query.
	ls.postings = b.rec.do(id, "index.postings", func() { ls.postingIDs = probePostings(b.st.idx, pre.Paths) })
	elapsed := b.rec.end(id, parent, "server.backend", start)
	b.mu.Lock()
	b.samples = append(b.samples, ls)
	b.mu.Unlock()
	out := &server.QueryOutcome{
		Answers: answers,
		Vars:    projected(parsed),
		Partial: ctx.Err() != nil,
		Stats: core.QueryStats{
			QueryPaths: ls.queryPaths,
			Extracted:  ls.retrieved,
			Elapsed:    elapsed,
			Conflicts:  ls.restarts,
		},
	}
	if out.Partial {
		out.StopReason = string(core.StopDeadline)
		if errors.Is(ctx.Err(), context.Canceled) {
			out.StopReason = string(core.StopCancelled)
		}
	}
	return out, nil
}

// take returns the layer samples recorded since the last take.
func (b *tracedBackend) take() []layerSample {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.samples
	b.samples = nil
	return out
}

// probePostings looks up the postings of every constant in the query
// paths, as retrieval does: by sink for constant sinks, by containment
// for every constant label. It returns the number of IDs returned.
func probePostings(idx *index.Index, qs []paths.Path) int {
	seen := map[string]bool{}
	n := 0
	for _, q := range qs {
		if s := q.Sink(); s.IsConstant() && !seen["sink:"+s.Label()] {
			seen["sink:"+s.Label()] = true
			n += len(idx.PathsBySink(s.Label()))
		}
		for _, terms := range [][]rdf.Term{q.Nodes, q.Edges} {
			for _, t := range terms {
				if t.IsConstant() && !seen[t.Label()] {
					seen[t.Label()] = true
					n += len(idx.PathsByLabel(t.Label()))
				}
			}
		}
	}
	return n
}

// plainBackend is the untraced lane of the traced run: the engine's own
// query path over the same index, parsing once as the traced lane does.
// The lanes then differ by the traced lane's spans and postings probes,
// and by the engine's per-query bookkeeping (explain trace, I/O tally,
// metrics) that the traced lane's direct layer calls skip. It keeps
// each query's trace so the explain-plan counters can be summed after
// the run.
type plainBackend struct {
	st *ixStore

	mu     sync.Mutex
	traces []*obs.Trace
}

func (b *plainBackend) query(ctx context.Context, src string, k int) (*server.QueryOutcome, error) {
	parsed, err := sparql.Parse(src)
	if err != nil {
		return nil, &server.BadRequestError{Err: err}
	}
	answers, st, err := b.st.run(ctx, parsed, k)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.traces = append(b.traces, st.Trace)
	b.mu.Unlock()
	return &server.QueryOutcome{
		Answers:    answers,
		Vars:       projected(parsed),
		Partial:    st.Partial,
		StopReason: string(st.StopReason),
		Stats:      st,
	}, nil
}

// take returns the traces recorded since the last take.
func (b *plainBackend) take() []*obs.Trace {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.traces
	b.traces = nil
	return out
}

// planCounts sums the explain-plan decision counters over traces.
type planCounts struct {
	queries                                               int
	preranked, sigRejected, memoHits, aligned             int64
	boundPruned, shortPruned                              int64
	visited, joined, psiScored, psiMemoHits, frontierPeak int64
	capHits, boundBreaks                                  int
}

func sumPlans(traces []*obs.Trace, maxCombinations int) planCounts {
	var pc planCounts
	for _, tr := range traces {
		p := obs.BuildPlan(tr)
		if p == nil || p.Source != "engine" {
			continue
		}
		pc.queries++
		for _, ph := range p.Phases {
			switch ph.Name {
			case "cluster":
				for _, c := range ph.Children {
					pc.preranked += c.Attrs["preranked"]
					pc.sigRejected += c.Attrs["sig_rejected"]
					pc.memoHits += c.Attrs["memo_hits"]
					pc.aligned += c.Attrs["aligned"]
					pc.boundPruned += c.Attrs["bound_pruned"]
					pc.shortPruned += c.Attrs["short_pruned"]
				}
			case "search":
				pc.visited += ph.Attrs["visited"]
				pc.joined += ph.Attrs["joined"]
				pc.psiScored += ph.Attrs["psi_scored"]
				pc.psiMemoHits += ph.Attrs["psi_memo_hits"]
				pc.frontierPeak += ph.Attrs["frontier_peak"]
				if ph.Attrs["visited"] >= int64(maxCombinations) {
					pc.capHits++
				}
				if ph.Attrs["bound_break"] > 0 {
					pc.boundBreaks++
				}
			}
		}
	}
	return pc
}
