package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/shard"
	"sama/internal/workload"
)

var updateAnswers = flag.Bool("update", false, "rewrite testdata/answers.golden.json from the reference engine")

// goldenPath is the frozen answer corpus: ranked answers of the
// reference configuration (serial, unpruned monolith) over a fixed set
// of datasets and queries, with every float recorded as its exact bit
// pattern.
var goldenPath = filepath.Join("testdata", "answers.golden.json")

// goldenK is the answer count a corpus query asks for unless its
// dataset overrides it.
const goldenK = 10

// goldenAnswer is one ranked answer in its corpus form. Floats are
// hex-encoded IEEE-754 bit patterns so equality is bitwise, not
// approximate; Subst maps each variable to its term's N-Triples form;
// Paths are the per-pair data path keys in cluster order.
type goldenAnswer struct {
	Score   string            `json:"score"`
	Lambda  string            `json:"lambda"`
	Psi     string            `json:"psi"`
	Degree  string            `json:"degree"`
	Subst   map[string]string `json:"subst"`
	Paths   []string          `json:"paths"`
	Missing []string          `json:"missing,omitempty"`
}

// goldenCorpus maps "<case>/<query>" to its ranked answers.
type goldenCorpus map[string][]goldenAnswer

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func toGolden(as []Answer) []goldenAnswer {
	out := make([]goldenAnswer, len(as))
	for i, a := range as {
		ga := goldenAnswer{
			Score:  floatBits(a.Score),
			Lambda: floatBits(a.Lambda),
			Psi:    floatBits(a.Psi),
			Degree: floatBits(a.Degree),
			Subst:  make(map[string]string, len(a.Subst)),
			Paths:  make([]string, len(a.Pairs)),
		}
		for name, t := range a.Subst {
			ga.Subst[name] = t.String()
		}
		for pi, pr := range a.Pairs {
			ga.Paths[pi] = pr.Data.Key()
		}
		for _, m := range a.Missing {
			ga.Missing = append(ga.Missing, m.Key())
		}
		out[i] = ga
	}
	return out
}

// goldenQuery is one corpus query.
type goldenQuery struct {
	id string
	q  *rdf.QueryGraph
}

// goldenDataset is one indexed graph with the configurations and
// queries the corpus records over it.
type goldenDataset struct {
	name    string
	graph   *rdf.Graph
	idxOpts index.Options
	// configs name the base Options the dataset's queries run under;
	// the engine variants add parallelism, pruning and sharding on top.
	configs []goldenConfig
	queries []goldenQuery
	// k overrides goldenK when set.
	k int
}

type goldenConfig struct {
	name string
	opts Options
	// heavy configurations (the default cap over LUBM) are skipped
	// under the race detector, where they would dominate the package's
	// time budget; the plain run always checks them.
	heavy bool
}

// randomStarCase draws one random graph of nEnt entities and a star
// query over it: entities link to a shared hub and two constants, plus
// noise edges, and the query's two to four patterns pair up over ?x /
// ?y or the Hub constant, so the intersection graph is dense and every
// cluster touches several pairs.
func randomStarCase(rng *rand.Rand, nEnt int) (*rdf.Graph, *rdf.QueryGraph) {
	g := rdf.NewGraph()
	for i := 0; i < nEnt; i++ {
		e := iri(fmt.Sprintf("E%02d", i))
		if rng.Intn(2) == 0 {
			g.AddTriple(rdf.Triple{S: e, P: iri("p1"), O: iri("Hub")})
		}
		if rng.Intn(2) == 0 {
			g.AddTriple(rdf.Triple{S: e, P: iri("p2"), O: iri("Hub")})
		}
		if rng.Intn(2) == 0 {
			g.AddTriple(rdf.Triple{S: e, P: iri("p3"), O: iri("C1")})
		}
		if rng.Intn(3) == 0 {
			g.AddTriple(rdf.Triple{S: e, P: iri("p4"), O: iri("C2")})
		}
		if rng.Intn(3) == 0 {
			g.AddTriple(rdf.Triple{S: iri(fmt.Sprintf("N%02d", rng.Intn(nEnt))), P: iri("p5"), O: e})
		}
	}
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("x"), P: iri("p1"), O: iri("Hub")})
	q.AddTriple(rdf.Triple{S: vr("x"), P: iri("p3"), O: iri("C1")})
	if rng.Intn(2) == 0 {
		q.AddTriple(rdf.Triple{S: vr("y"), P: iri("p2"), O: iri("Hub")})
	}
	if rng.Intn(2) == 0 {
		q.AddTriple(rdf.Triple{S: vr("y"), P: iri("p4"), O: iri("C2")})
	}
	return g, q
}

// wideChainLen is the number of constants on the crafted query's
// shared chain: more than one 64-bit mask word.
const wideChainLen = 66

// wideSharedConstCase builds a query whose two paths share
// wideChainLen constants — two sources feeding one constant chain —
// and data where equal-length detours replace chain nodes on both
// sides of the 64-constant mask word boundary (C63 and C64, C64 alone,
// C11 alone), so the conformity counts differ in every mask word.
func wideSharedConstCase() (*rdf.Graph, *rdf.QueryGraph) {
	c := func(i int) rdf.Term { return iri(fmt.Sprintf("C%02d", i)) }
	g := rdf.NewGraph()
	for i := 0; i+1 < wideChainLen; i++ {
		g.AddTriple(rdf.Triple{S: c(i), P: iri("n"), O: c(i + 1)})
	}
	detour := func(from, to int, via ...string) {
		prev := c(from)
		for _, v := range via {
			g.AddTriple(rdf.Triple{S: prev, P: iri("n"), O: iri(v)})
			prev = iri(v)
		}
		g.AddTriple(rdf.Triple{S: prev, P: iri("n"), O: c(to)})
	}
	detour(62, 65, "X63", "X64")
	detour(63, 65, "Y64")
	detour(10, 12, "Z11")
	for _, src := range []string{"A1", "A2"} {
		g.AddTriple(rdf.Triple{S: iri(src), P: iri("p"), O: c(0)})
	}
	for _, src := range []string{"B1", "B2"} {
		g.AddTriple(rdf.Triple{S: iri(src), P: iri("q"), O: c(0)})
	}
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("a"), P: iri("p"), O: c(0)})
	q.AddTriple(rdf.Triple{S: vr("b"), P: iri("q"), O: c(0)})
	for i := 0; i+1 < wideChainLen; i++ {
		q.AddTriple(rdf.Triple{S: c(i), P: iri("n"), O: c(i + 1)})
	}
	return g, q
}

// goldenDatasets lists the corpus: the Fig. 7 LUBM mix at cap 16, at
// the default cap and under the raw χ, the seeded random star queries,
// and the crafted query sharing more than 64 constants.
func goldenDatasets() []goldenDataset {
	var lubm []goldenQuery
	for _, q := range workload.LUBMQueries() {
		lubm = append(lubm, goldenQuery{id: q.ID, q: q.Pattern})
	}
	ds := []goldenDataset{{
		name:  "lubm",
		graph: datasets.LUBM{}.Generate(6000, 7),
		configs: []goldenConfig{
			{"cap16", Options{MaxCandidatesPerCluster: 16}, false},
			{"default", Options{}, true},
			{"rawchi", Options{RawChi: true}, true},
		},
		queries: lubm,
	}}
	rng := rand.New(rand.NewSource(20260808))
	for r := 0; r < 8; r++ {
		g, q := randomStarCase(rng, 8+rng.Intn(12))
		ds = append(ds, goldenDataset{
			name:    fmt.Sprintf("star%d", r),
			graph:   g,
			configs: []goldenConfig{{"default", Options{}, false}},
			queries: []goldenQuery{{id: "star", q: q}},
		})
	}
	g, q := wideSharedConstCase()
	ds = append(ds, goldenDataset{
		name:    "widechain",
		graph:   g,
		idxOpts: index.Options{Paths: paths.Config{MaxLength: wideChainLen + 8, MaxPerRoot: 16}},
		configs: []goldenConfig{{"default", Options{}, false}},
		queries: []goldenQuery{{id: "shared66", q: q}},
		k:       40,
	})
	return ds
}

// TestAnswersMatchGoldenCorpus pins ranked answers to the frozen
// corpus bit for bit — score, λ, ψ and degree bit patterns,
// substitutions and data paths — for every engine variant: pruned and
// unpruned cluster phase, Parallelism 1 and 8, and the monolith next
// to NewSharded at 1 and 4 shards. Run with -update to regenerate the
// corpus from the serial unpruned monolith.
func TestAnswersMatchGoldenCorpus(t *testing.T) {
	if *updateAnswers && raceEnabled {
		t.Fatal("-update needs the plain build: the race build skips heavy configurations")
	}
	got := goldenCorpus{}
	skipped := map[string]bool{}
	var want goldenCorpus
	if !*updateAnswers {
		buf, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (run `go test -run TestAnswersMatchGoldenCorpus -update ./internal/core` to create it)", err)
		}
		if err := json.Unmarshal(buf, &want); err != nil {
			t.Fatal(err)
		}
	}
	for _, ds := range goldenDatasets() {
		dir := t.TempDir()
		ix, err := index.Build(filepath.Join(dir, "mono"), ds.graph, ds.idxOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		sets := map[int]*shard.Set{}
		for _, n := range []int{1, 4} {
			s, err := shard.Build(filepath.Join(dir, fmt.Sprintf("s%d", n)), ds.graph,
				shard.Options{Shards: n, Index: ds.idxOpts})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sets[n] = s
		}
		k := goldenK
		if ds.k > 0 {
			k = ds.k
		}
		for _, cfg := range ds.configs {
			if cfg.heavy && raceEnabled {
				skipped[ds.name+"/"+cfg.name+"/"] = true
				continue
			}
			ref := cfg.opts
			ref.Parallelism = 1
			ref.testNoClusterPrune = true
			refEng := New(ix, ref)
			type variant struct {
				name string
				e    *Engine
			}
			var variants []variant
			for _, pruned := range []bool{true, false} {
				for _, par := range []int{1, 8} {
					o := cfg.opts
					o.Parallelism = par
					o.testNoClusterPrune = !pruned
					tag := fmt.Sprintf("pruned=%v par=%d", pruned, par)
					variants = append(variants,
						variant{"monolith " + tag, New(ix, o)},
						variant{"shards=1 " + tag, NewSharded(sets[1], o)},
						variant{"shards=4 " + tag, NewSharded(sets[4], o)})
				}
			}
			for _, q := range ds.queries {
				key := ds.name + "/" + cfg.name + "/" + q.id
				ref, err := refEng.Query(q.q, k)
				if err != nil {
					t.Fatalf("%s reference: %v", key, err)
				}
				got[key] = toGolden(ref)
				if !*updateAnswers {
					w, ok := want[key]
					if !ok {
						t.Errorf("%s: missing from the corpus", key)
						continue
					}
					checkGolden(t, key, "reference", w, got[key])
				}
				for _, v := range variants {
					as, err := v.e.Query(q.q, k)
					if err != nil {
						t.Fatalf("%s %s: %v", key, v.name, err)
					}
					checkGolden(t, key, v.name, got[key], toGolden(as))
				}
			}
			refEng.Close()
			for _, v := range variants {
				v.e.Close()
			}
		}
	}
	if *updateAnswers {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var extra []string
	for key := range want {
		if _, ok := got[key]; !ok && !skipped[key[:strings.LastIndex(key, "/")+1]] {
			extra = append(extra, key)
		}
	}
	sort.Strings(extra)
	for _, key := range extra {
		t.Errorf("%s: in the corpus but no longer generated", key)
	}
}

// checkGolden reports the first answer where got departs from want.
func checkGolden(t *testing.T, key, label string, want, got []goldenAnswer) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s %s: %d answers, corpus has %d", key, label, len(got), len(want))
		return
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%s %s answer %d:\n got %+v\nwant %+v", key, label, i, got[i], want[i])
			return
		}
	}
}
