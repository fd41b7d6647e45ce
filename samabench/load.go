package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"sama/client"
	"sama/internal/rdf"
)

// querySample is one request of the measured loop.
type querySample struct {
	lane int
	// lat is the client's own measure of the request; span is the root
	// span of a traced-lane request.
	lat  time.Duration
	span uint64
	// bytes is the response body size; elapsedNS and queueNS come from
	// the response's stats.
	bytes              int64
	elapsedNS, queueNS int64
	// fail is the failure cause, "" for a correct answer.
	fail string
}

// loopResult is what the closed-loop clients measured.
type loopResult struct {
	samples []querySample
	// wall is the measured wall time, without the cache drops of the
	// cold workload.
	wall, dropped time.Duration
}

// failure causes.
const (
	failShed      = "shed_503"
	failStale     = "stale_read_500"
	failServer    = "server_error"
	failTransport = "transport"
	failWrong     = "wrong_answer"
	failPartial   = "partial"
)

func classify(err error) string {
	var se *client.StatusError
	if !errors.As(err, &se) {
		return failTransport
	}
	switch {
	case se.Code == 503:
		return failShed
	case se.Code == 500 && strings.Contains(se.Message, "stale read"):
		return failStale
	default:
		return failServer + "_" + strconv.Itoa(se.Code)
	}
}

// runQueries drives the closed-loop clients for the given duration.
// Each client walks seeded random permutations of the mix, so every
// query runs equally often; in the traced run consecutive requests
// alternate between the plain and the traced lane.
func (b *bench) runQueries(ctx context.Context, d time.Duration) loopResult {
	var (
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(d)
	var lastDone time.Time
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*7919 + int64(c)))
			var perm []int
			var mine []querySample
			var dropped time.Duration
			for n := 0; time.Now().Before(end); n++ {
				if len(perm) == 0 {
					perm = rng.Perm(len(b.queries))
				}
				q := b.queries[perm[0]]
				perm = perm[1:]
				if b.w.cold {
					id, s0 := b.rec.begin()
					t := time.Now()
					if err := b.st.dropCache(); err != nil {
						fmt.Fprintln(os.Stderr, "drop cache:", err)
					}
					dropped += time.Since(t)
					b.rec.end(id, 0, "storage.drop_cache", s0)
				}
				lane := n % len(b.lanes)
				mine = append(mine, b.request(ctx, q.ID, q.SPARQL, lane))
			}
			mu.Lock()
			res.samples = append(res.samples, mine...)
			res.dropped += dropped
			if now := time.Now(); now.After(lastDone) {
				lastDone = now
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = lastDone.Sub(start) - res.dropped
	return res
}

// request sends one query through a client lane and checks the answer.
// Requests on the traced lane get a root span that the server-side
// spans hang under.
func (b *bench) request(ctx context.Context, id, src string, lane int) querySample {
	s := querySample{lane: lane}
	if b.rec != nil {
		ctx = context.WithValue(ctx, bytesKey{}, &s.bytes)
	}
	var s0 int64
	if lane == 1 {
		s.span, s0 = b.rec.begin()
		ctx = withSpan(ctx, s.span)
	}
	t := time.Now()
	resp, err := b.lanes[lane].Query(ctx, src, client.QueryOptions{K: topK})
	s.lat = time.Since(t)
	if lane == 1 {
		b.rec.end(s.span, 0, "client.request", s0)
	}
	switch {
	case err != nil:
		s.fail = classify(err)
	case resp.Partial:
		s.fail = failPartial
	default:
		s.elapsedNS, s.queueNS = resp.Stats.ElapsedNS, resp.Stats.QueueNS
		got := fromWire(resp.Answers)
		var cerr error
		if b.w.writer {
			cerr = wellFormed(got, topK)
		} else {
			cerr = sameAnswers(got, b.refs[id])
		}
		if cerr != nil {
			s.fail = failWrong
			fmt.Fprintf(os.Stderr, "wrong answer: %s lane %d: %v\n", id, lane, cerr)
		}
	}
	return s
}

// insertSample is one batch of an open-loop writer, timed from the
// batch's due time.
type insertSample struct {
	lag, service, latency time.Duration
	err                   error
}

// runWriter inserts the batches on a fixed schedule of rate batches per
// second from start, stopping at until (zero: after every batch). A
// batch that is late starts at once; its latency still counts from its
// due time, so a stall shows in the batches queued behind it. Rate 0
// inserts back-to-back: each batch is due when the one before it
// returns, so its latency is its service time.
func (b *bench) runWriter(batches [][]rdf.Triple, rate float64, start, until time.Time) []insertSample {
	var out []insertSample
	for i, batch := range batches {
		due := time.Now()
		if rate > 0 {
			due = start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		}
		if !until.IsZero() && !due.Before(until) {
			break
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		id, s0 := b.rec.begin()
		t0 := time.Now()
		err := b.st.insert(batch)
		t1 := time.Now()
		b.rec.end(id, 0, "index.insert", s0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "insert:", err)
		}
		out = append(out, insertSample{lag: t0.Sub(due), service: t1.Sub(t0), latency: t1.Sub(due), err: err})
	}
	return out
}
