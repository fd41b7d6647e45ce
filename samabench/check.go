package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"sama/client"
	"sama/internal/core"
)

// answer is one ranked answer reduced to what the checks compare: its
// score and its projected bindings in N-Triples term syntax, the same
// rendering the server puts on the wire.
type answer struct {
	Score    float64           `json:"score"`
	Bindings map[string]string `json:"bindings,omitempty"`
}

func fromEngine(as []core.Answer, vars []string) []answer {
	out := make([]answer, len(as))
	for i, a := range as {
		out[i].Score = a.Score
		for _, v := range vars {
			if t, ok := a.Subst[v]; ok {
				if out[i].Bindings == nil {
					out[i].Bindings = map[string]string{}
				}
				out[i].Bindings[v] = t.String()
			}
		}
	}
	return out
}

func fromWire(as []client.Answer) []answer {
	out := make([]answer, len(as))
	for i, a := range as {
		out[i] = answer{Score: a.Score, Bindings: a.Bindings}
	}
	return out
}

// sameAnswers reports whether two ranked lists agree answer for answer:
// equal bindings, and scores equal up to float rounding.
func sameAnswers(a, b []answer) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d answers, want %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > 1e-9*math.Max(1, math.Abs(b[i].Score)) {
			return fmt.Errorf("answer %d: score %v, want %v", i+1, a[i].Score, b[i].Score)
		}
		if len(a[i].Bindings) != len(b[i].Bindings) {
			return fmt.Errorf("answer %d: bindings %v, want %v", i+1, a[i].Bindings, b[i].Bindings)
		}
		for k, v := range b[i].Bindings {
			if a[i].Bindings[k] != v {
				return fmt.Errorf("answer %d: ?%s = %s, want %s", i+1, k, a[i].Bindings[k], v)
			}
		}
	}
	return nil
}

// wellFormed is the check applied while writes run, when no fixed
// reference exists: at most k answers, every one bound, in
// non-decreasing score order.
func wellFormed(as []answer, k int) error {
	if len(as) == 0 || len(as) > k {
		return fmt.Errorf("%d answers, want 1..%d", len(as), k)
	}
	for i, a := range as {
		if len(a.Bindings) == 0 {
			return fmt.Errorf("answer %d has no bindings", i+1)
		}
		if i > 0 && a.Score < as[i-1].Score {
			return fmt.Errorf("answer %d scores %v after %v", i+1, a.Score, as[i-1].Score)
		}
	}
	return nil
}

// goldenFile holds the ranked answers per dataset and query, with the
// generator seed of the data. Regenerate it with -write-golden.
type goldenFile struct {
	DataSeed int64                          `json:"data_seed"`
	K        int                            `json:"k"`
	Datasets map[string]map[string][]answer `json:"datasets"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// checkGolden compares reference answers against the committed golden
// for the dataset.
func checkGolden(dataset string, refs map[string][]answer) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	want, ok := g.Datasets[dataset]
	if !ok || g.DataSeed != dataSeed {
		return fmt.Errorf("golden.json has no answers for %s at data seed %d", dataset, dataSeed)
	}
	var bad []string
	ids := make([]string, 0, len(refs))
	for id := range refs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w, ok := want[id]
		if !ok {
			bad = append(bad, id+": not in golden")
			continue
		}
		if err := sameAnswers(refs[id], w); err != nil {
			bad = append(bad, id+": "+err.Error())
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("golden mismatch on %s: %s", dataset, strings.Join(bad, "; "))
	}
	return nil
}

// writeGolden records the reference answers of every golden dataset
// into path.
func writeGolden(path string) error {
	g := goldenFile{DataSeed: dataSeed, K: topK, Datasets: map[string]map[string][]answer{}}
	for _, w := range workloads {
		if w.golden == "" || g.Datasets[w.golden] != nil {
			continue
		}
		dir, err := os.MkdirTemp(workRoot, "golden")
		if err != nil {
			return err
		}
		refs, err := goldenRefs(w, dir)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		g.Datasets[w.golden] = refs
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", " ")
	if err := enc.Encode(g); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
