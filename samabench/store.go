package main

import (
	"context"
	"os"
	"path/filepath"

	"sama"
	"sama/internal/cache"
	"sama/internal/core"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/rdf"
	"sama/internal/sparql"
	"sama/internal/storage"
)

// store is the system under test as the load generators and checks see
// it. The untraced run drives the public sama.DB (dbStore); the traced
// run builds the same index and engine from the layers' own
// constructors (ixStore), so its backend can call each layer in turn.
type store interface {
	// reference answers a query in-process, through the engine's own
	// query path.
	reference(ctx context.Context, src string) ([]answer, error)
	insert(ts []rdf.Triple) error
	dropCache() error
	poolStats() storage.PoolStats
	cacheStats() map[string]cache.Stats
	walStats() (storage.WALStats, bool)
	// triples is the number of statements in the attached data graph.
	triples() int
	close() error
}

// indexFiles is the on-disk footprint of the index at base: the page
// file, the metadata, the insert sidecar and the write-ahead log.
func indexFiles(base string) int64 {
	var total int64
	matches, _ := filepath.Glob(base + ".*")
	for _, m := range matches {
		filepath.Walk(m, func(_ string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				total += info.Size()
			}
			return nil
		})
	}
	return total
}

func walDir(base string) string { return base + ".wal" }

// dbStore is the public API: sama.Create / sama.Open and DB methods.
type dbStore struct {
	db *sama.DB
	g  *sama.Graph
}

func createDB(base string, g *sama.Graph, wal bool) (*dbStore, error) {
	var opts []sama.Option
	if wal {
		opts = append(opts, sama.WithWAL(walDir(base)))
	}
	db, err := sama.Create(base, g, opts...)
	if err != nil {
		return nil, err
	}
	return &dbStore{db: db, g: g}, nil
}

func openDB(base string, g *sama.Graph) (*dbStore, sama.RecoveryStats, error) {
	db, err := sama.Open(base)
	if err != nil {
		return nil, sama.RecoveryStats{}, err
	}
	rs, err := db.Recover(g)
	if err != nil {
		db.Close()
		return nil, rs, err
	}
	return &dbStore{db: db, g: g}, rs, nil
}

func (s *dbStore) reference(ctx context.Context, src string) ([]answer, error) {
	res, err := s.db.QuerySPARQLContext(ctx, src, topK)
	if err != nil {
		return nil, err
	}
	return fromEngine(res.Answers, res.Vars), nil
}

func (s *dbStore) insert(ts []rdf.Triple) error       { return s.db.Insert(ts) }
func (s *dbStore) dropCache() error                   { return s.db.DropCache() }
func (s *dbStore) poolStats() storage.PoolStats       { return s.db.PoolStats() }
func (s *dbStore) cacheStats() map[string]cache.Stats { return s.db.CacheStats() }
func (s *dbStore) walStats() (storage.WALStats, bool) { return s.db.WALStats() }
func (s *dbStore) triples() int                       { return s.g.EdgeCount() }
func (s *dbStore) close() error                       { return s.db.Close() }
func (s *dbStore) serve(opts sama.ServerOptions) (*sama.QueryServer, error) {
	return s.db.Serve("127.0.0.1:0", opts)
}

// ixStore is the index and engine assembled as sama.Create assembles
// them, kept open to the benchmark so the traced backend can call
// sparql.Parse, Engine.Preprocess, Engine.ClusterContext and
// Engine.SearchContext one at a time.
type ixStore struct {
	idx *index.Index
	eng *core.Engine
	reg *obs.Registry
	g   *rdf.Graph
}

func newIxStore(idx *index.Index, g *rdf.Graph) *ixStore {
	reg := obs.NewRegistry()
	idx.SetMetrics(reg)
	return &ixStore{idx: idx, eng: core.New(idx, core.Options{Metrics: reg}), reg: reg, g: g}
}

func createIx(base string, g *rdf.Graph, wal bool) (*ixStore, error) {
	opts := index.Options{}
	if wal {
		opts.WALDir = walDir(base)
	}
	idx, err := index.Build(base, g, opts)
	if err != nil {
		return nil, err
	}
	return newIxStore(idx, g), nil
}

func openIx(base string, g *rdf.Graph) (*ixStore, index.RecoveryStats, error) {
	idx, err := index.Open(base, index.Options{})
	if err != nil {
		return nil, index.RecoveryStats{}, err
	}
	rs, err := idx.Recover(g)
	if err != nil {
		idx.Close()
		return nil, rs, err
	}
	return newIxStore(idx, g), rs, nil
}

// run is the untraced engine path over a parsed query, as
// DB.QuerySPARQLContext runs it.
func (s *ixStore) run(ctx context.Context, parsed *sparql.Query, k int) ([]core.Answer, core.QueryStats, error) {
	if parsed.Limit > 0 {
		k = parsed.Limit
	}
	return s.eng.QueryWithStatsContext(ctx, parsed.Pattern, k)
}

func (s *ixStore) reference(ctx context.Context, src string) ([]answer, error) {
	parsed, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	as, _, err := s.run(ctx, parsed, topK)
	if err != nil {
		return nil, err
	}
	return fromEngine(as, projected(parsed)), nil
}

func (s *ixStore) insert(ts []rdf.Triple) error { return s.idx.InsertTriples(ts) }

func (s *ixStore) dropCache() error {
	s.eng.DropCaches()
	return s.idx.DropCache()
}

func (s *ixStore) poolStats() storage.PoolStats       { return s.idx.PoolStats() }
func (s *ixStore) cacheStats() map[string]cache.Stats { return s.eng.CacheStats() }
func (s *ixStore) walStats() (storage.WALStats, bool) { return s.idx.WALStats() }
func (s *ixStore) triples() int                       { return s.g.EdgeCount() }

func (s *ixStore) close() error {
	s.eng.Close()
	return s.idx.Close()
}

// projected is the query's answer variables: the SELECT list, or every
// pattern variable for SELECT *.
func projected(q *sparql.Query) []string {
	if q.Select != nil {
		return q.Select
	}
	return q.Pattern.Vars()
}
