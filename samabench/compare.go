package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// compareMain prints, for each workload × metric found in two result
// directories (A: the base commit, B: the change), each side's median
// and quartiles and the share of pairs B wins. Runs pair up by seed;
// ties count for neither side.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: samabench compare RESULTS_A RESULTS_B")
		return 2
	}
	a, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "samabench:", err)
		return 2
	}
	b, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "samabench:", err)
		return 2
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA q1..q3\tB median\tB q1..q3\tB/A\tpairs\tB wins\t")
	for _, key := range sortedKeys(a) {
		bs, ok := b[key]
		if !ok {
			continue
		}
		as := a[key]
		m, _ := metricByName(key.metric)
		am, aq1, aq3 := quartiles(values(as))
		bm, bq1, bq3 := quartiles(values(bs))
		wins, pairs := 0, 0
		for seed, av := range as {
			bv, ok := bs[seed]
			if !ok {
				continue
			}
			pairs++
			if (m.higher && bv > av) || (!m.higher && bv < av) {
				wins++
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g..%.4g\t%.4g\t%.4g..%.4g\t%.3f\t%d\t%.0f%%\t\n",
			key.workload, key.metric, m.unit, am, aq1, aq3, bm, bq1, bq3, ratio(bm, am),
			pairs, 100*ratio(float64(wins), float64(pairs)))
	}
	tw.Flush()
	return 0
}

type resultKey struct{ workload, metric string }

// loadResults reads every result file in dir into metric values keyed
// by workload × metric, then by seed.
func loadResults(dir string) (map[resultKey]map[int64]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[resultKey]map[int64]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Schema != schemaVersion {
			return nil, fmt.Errorf("%s: schema version %d, want %d", f, r.Schema, schemaVersion)
		}
		// End-to-end numbers come from untraced runs, per-layer numbers
		// from traced ones.
		set := r.EndToEnd
		if r.Env.Tracing {
			set = r.PerLayer
		}
		for name, v := range set {
			k := resultKey{r.Workload, name}
			if out[k] == nil {
				out[k] = map[int64]float64{}
			}
			out[k][r.Seed] = v.Value
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

func sortedKeys(m map[resultKey]map[int64]float64) []resultKey {
	order := map[string]int{}
	for i, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		order[d.name] = i
	}
	keys := make([]resultKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return strings.Compare(keys[i].workload, keys[j].workload) < 0
		}
		return order[keys[i].metric] < order[keys[j].metric]
	})
	return keys
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// quartiles returns the median, first and third quartiles of xs with
// the same interpolation as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (med, q1, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(p float64) float64 {
		// exclusive method: position p*(n+1), 1-based, clamped.
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return xs[0]
		}
		if j >= n {
			return xs[n-1]
		}
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(0.5), at(0.25), at(0.75)
}
