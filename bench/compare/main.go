// Command compare reads benchmark result files for a parent commit and a
// change (JSON lines, as `bench --out` appends them) and prints one row
// per workload and end-to-end metric: each side's median and quartiles,
// the bound BENCHMARK.json fixes, and a verdict.
//
//	go run ./compare -spec ../BENCHMARK.json -a parent.jsonl -b change.jsonl
//
// A verdict is "better" when the change wins at least 9 of every 10 runs
// paired in file order and the medians differ by more than the parent's
// interquartile range, or when every change run beats every parent run;
// "unresolved" when the parent's own spread is wider than the bound;
// "worse" when the change's median is worse than the parent's by more
// than the bound; "unchanged" otherwise. Traced runs are skipped. The
// exit status is 1 when any row is worse or any change run is incorrect.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type record struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Correct  bool   `json:"correct"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// files collects a repeatable -a/-b flag.
type files []string

func (f *files) String() string     { return strings.Join(*f, ",") }
func (f *files) Set(v string) error { *f = append(*f, v); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "../BENCHMARK.json", "BENCHMARK.json with the metrics' directions and bounds")
	var a, b files
	fs.Var(&a, "a", "parent result file (repeatable)")
	fs.Var(&b, "b", "change result file (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(stderr, "compare: need at least one -a and one -b result file")
		return 2
	}
	var spec benchSpec
	if err := readJSON(*specPath, &spec); err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	parent, err := readRecords(a)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	change, err := readRecords(b)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}

	status := 0
	fmt.Fprintf(stdout, "%-18s %-17s %-34s %-34s %8s %6s %6s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "bound", "wins", "verdict")
	for _, w := range spec.Workloads {
		pa, pb := parent[w.Name], change[w.Name]
		if len(pa) == 0 || len(pb) == 0 {
			fmt.Fprintf(stdout, "%-18s (runs: parent %d, change %d; nothing to compare)\n", w.Name, len(pa), len(pb))
			continue
		}
		for _, r := range pb {
			if !r.Correct {
				fmt.Fprintf(stdout, "%-18s change has an incorrect run\n", w.Name)
				status = 1
				break
			}
		}
		for _, m := range spec.EndToEnd {
			xa, xb := values(pa, m.Name), values(pb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(xa, xb, m.Bound, m.Better == "higher")
			if v.verdict == "worse" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-18s %-17s %-34s %-34s %+7.2f%% %6.2f %6s  %s\n",
				w.Name, m.Name, describe(xa), describe(xb), v.delta*100, m.Bound,
				fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
	}
	return status
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readRecords groups the untraced runs of the files by workload, in file
// order.
func readRecords(paths []string) (map[string][]record, error) {
	out := map[string][]record{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for n := 1; sc.Scan(); n++ {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s:%d: %w", p, n, err)
			}
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}

type judgement struct {
	verdict     string
	delta       float64 // change median vs parent median, signed so positive is worse
	wins, pairs int
}

// judge applies the verdict rules to a metric's parent runs a and change
// runs b.
func judge(a, b []float64, bound float64, higherBetter bool) judgement {
	beats := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	iqr := q3 - q1
	j := judgement{pairs: min(len(a), len(b))}
	for i := 0; i < j.pairs; i++ {
		if beats(b[i], a[i]) {
			j.wins++
		}
	}
	j.delta = (mb - ma) / math.Abs(ma)
	if higherBetter {
		j.delta = -j.delta
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !beats(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case (j.wins*10 >= j.pairs*9 && beats(mb, ma) && math.Abs(mb-ma) > iqr) || allBetter:
		j.verdict = "better"
	case iqr/math.Abs(ma) > bound:
		j.verdict = "unresolved"
	case j.delta > bound:
		j.verdict = "worse"
	default:
		j.verdict = "unchanged"
	}
	return j
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
