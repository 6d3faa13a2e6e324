package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runCompare implements `storbench compare A.json B.json`: A is the
// parent's run set, B the change's, both printed by -runs K -json with
// the same settings. Each workload × metric is one row: both sides'
// median and quartiles, how many of the paired runs B won, the change
// of the median, and a verdict.
func runCompare(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: storbench compare A.json B.json")
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "storbench: %v\n", err)
		return 1
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "storbench: %v\n", err)
		return 1
	}
	if a.Trace != b.Trace {
		fmt.Fprintln(stderr, "storbench: cannot compare a traced run set with an untraced one")
		return 1
	}
	defs := endToEnd
	if a.Trace {
		defs = perLayer
	}
	names := make([]string, 0, len(a.Runs))
	for n := range a.Runs {
		if _, ok := b.Runs[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-13s %-26s %-30s %-30s %-6s %-9s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "change", "verdict")
	for _, n := range names {
		for _, d := range defs {
			xs, ys := values(a.Runs[n], d.Name), values(b.Runs[n], d.Name)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			c := compareMetric(d, xs, ys)
			fmt.Fprintf(stdout, "%-13s %-26s %-30s %-30s %-6s %+8.2f%% %s\n", n, d.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.a[1], c.a[0], c.a[2]),
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.b[1], c.b[0], c.b[2]),
				fmt.Sprintf("%d/%d", c.wins, c.pairs), 100*c.change, c.verdict)
		}
	}
	return 0
}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &runSet{}
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func values(runs []*runResult, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// comparison is one row of compare's output.
type comparison struct {
	a, b        [3]float64 // q1, median, q3
	wins, pairs int
	change      float64 // (B - A) / A of the medians
	verdict     string
}

// compareMetric applies the benchmark's rule to one metric's runs of
// the parent (xs) and the change (ys), paired by position:
//
//   - improved: B wins at least nine tenths of the pairs and its median
//     is better than A's by more than A's quartile spread;
//   - unresolved: A's quartile spread, as a share of its median, is wider
//     than the metric's bound, unless every B run beats every A run;
//   - regressed: B's median is worse than A's by more than the bound;
//   - within bound otherwise.
//
// Per-layer metrics have no bound; for them a worse median past A's
// spread with B losing nine tenths of the pairs reads "worse".
func compareMetric(d metricDef, xs, ys []float64) comparison {
	c := comparison{a: quartiles(xs), b: quartiles(ys)}
	better := func(y, x float64) bool {
		if d.Better == "higher" {
			return y > x
		}
		return y < x
	}
	c.pairs = min(len(xs), len(ys))
	losses := 0
	for i := 0; i < c.pairs; i++ {
		switch {
		case better(ys[i], xs[i]):
			c.wins++
		case better(xs[i], ys[i]):
			losses++
		}
	}
	medA, medB := c.a[1], c.b[1]
	c.change = (medB - medA) / medA
	spread := c.a[2] - c.a[0]
	beyond := math.Abs(medB-medA) > spread
	worse := better(medA, medB)
	allBetter := true
	for _, y := range ys {
		for _, x := range xs {
			allBetter = allBetter && better(y, x)
		}
	}
	switch {
	case 10*c.wins >= 9*c.pairs && beyond && !worse:
		c.verdict = "improved"
	case d.Bound == 0 && 10*losses >= 9*c.pairs && beyond && worse:
		c.verdict = "worse"
	case d.Bound == 0:
		c.verdict = "no change shown"
	case spread/math.Abs(medA) > d.Bound && !allBetter:
		c.verdict = "unresolved"
	case worse && math.Abs(c.change) > d.Bound:
		c.verdict = "regressed"
	default:
		c.verdict = "within bound"
	}
	return c
}

// quartiles returns q1, median and q3 with the method of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so compare and
// a script reading the same runs agree. One value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
