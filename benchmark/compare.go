package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"passcloud/benchmark/e2e"
)

// compareMain implements `benchmark compare A.jsonl B.jsonl`: per
// workload and end-to-end metric it prints both medians, B's ratio to A
// (A is the base), the bound, and a verdict. It returns 1 when any
// verdict is "worse", 2 when the inputs cannot be compared.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.jsonl B.jsonl")
		return 2
	}
	a, err := loadSet(args[0])
	if err == nil {
		var b resultSet
		if b, err = loadSet(args[1]); err == nil {
			return compareSets(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

// resultSet maps workload -> metric -> one value per run.
type resultSet map[string]map[string][]float64

// loadSet reads the untraced records of a JSON-lines result file. Runs at
// a non-default size measure a different workload and are refused.
func loadSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Run == nil {
			return nil, fmt.Errorf("%s:%d: record carries no run stamp (was it written with --out?)", path, line)
		}
		if rec.Run.Traced {
			continue
		}
		if rec.Run.Scale != 1 {
			return nil, fmt.Errorf("%s:%d: %s ran at scale %g; only default-size runs compare", path, line, rec.Run.Workload, rec.Run.Scale)
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d failed its correctness checks", path, line, rec.Run.Workload, rec.Run.Seed)
		}
		byMetric := set[rec.Run.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			set[rec.Run.Workload] = byMetric
		}
		for name, m := range rec.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return set, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of vs
// by linear interpolation between order statistics.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// verdict classifies B against A for one metric. Medians within the bound
// agree ("within"). Beyond it, the difference counts only if the runs
// resolve it: either each side's interquartile spread is inside the
// bound, or every run of one side beats every run of the other.
func verdict(m e2e.EndToEndMetric, a, b []float64) (string, float64) {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	ratio := bmed / amed
	change := ratio - 1 // > 0: B is worse
	if m.HigherWins {
		change = 1 - ratio
	}
	if change <= m.Bound && -change <= m.Bound {
		return "within", ratio
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	bAllAbove, bAllBelow := sb[0] > sa[len(sa)-1], sb[len(sb)-1] < sa[0]
	separated := bAllAbove || bAllBelow
	if !separated && ((aq3-aq1)/amed > m.Bound || (bq3-bq1)/bmed > m.Bound) {
		return "unresolved", ratio
	}
	if change > 0 {
		return "worse", ratio
	}
	return "better", ratio
}

func compareSets(w io.Writer, a, b resultSet) int {
	worse := false
	for _, spec := range e2e.Workloads {
		am, bm := a[spec.Name], b[spec.Name]
		if am == nil || bm == nil {
			fmt.Fprintf(w, "%s: missing from one side, not compared\n", spec.Name)
			continue
		}
		fmt.Fprintf(w, "%s (A: %d runs, B: %d runs)\n", spec.Name, len(am["setup_s"]), len(bm["setup_s"]))
		fmt.Fprintf(w, "  %-28s %14s %14s %9s %6s  %s\n", "metric", "A median", "B median", "B/A", "bound", "verdict")
		for _, m := range e2e.EndToEndMetrics {
			av, bv := am[m.Name], bm[m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "  %-28s missing from one side\n", m.Name)
				continue
			}
			v, ratio := verdict(m, av, bv)
			worse = worse || v == "worse"
			_, amed, _ := quartiles(av)
			_, bmed, _ := quartiles(bv)
			fmt.Fprintf(w, "  %-28s %14.4f %14.4f %9.4f %6.2f  %s\n", m.Name+" ("+m.Unit+")", amed, bmed, ratio, m.Bound, v)
		}
	}
	if worse {
		return 1
	}
	return 0
}
