package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.2, 1.5, 9.9, 4.4}, 1.925, 8.525},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2, 2.5, 2.25, 7, 1, 3, 4}, 2, 4},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// around returns n values spread evenly over center*(1±spread).
func around(center, spread float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center * (1 - spread + 2*spread*float64(i)/float64(n-1))
	}
	return out
}

func TestJudge(t *testing.T) {
	cases := []struct {
		name   string
		a, b   []float64
		bound  float64
		higher bool
		want   string
	}{
		{"clear gain, lower is better", around(100, 0.01, 10), around(90, 0.01, 10), 0.1, false, "better"},
		{"clear gain, higher is better", around(100, 0.01, 10), around(110, 0.01, 10), 0.1, true, "better"},
		{"within the bound", around(100, 0.01, 10), around(104, 0.01, 10), 0.1, false, "unchanged"},
		{"worse beyond the bound", around(100, 0.01, 10), around(115, 0.01, 10), 0.1, false, "worse"},
		{"throughput drop", around(100, 0.01, 10), around(85, 0.01, 10), 0.1, true, "worse"},
		{"spread wider than the bound", around(100, 0.4, 10), around(101, 0.4, 10), 0.1, false, "unresolved"},
		{"wide spread but every change run better", around(100, 0.4, 10), around(50, 0.1, 10), 0.1, false, "better"},
		// Small win in the median but not beyond the parent's spread.
		{"gain within the parent's spread", around(100, 0.05, 10), around(99, 0.05, 10), 0.2, false, "unchanged"},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.bound, c.higher).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestJudgeCountsPairWinsWithoutTies(t *testing.T) {
	a := []float64{10, 10, 10, 10}
	b := []float64{9, 10, 11, 9}
	j := judge(a, b, 0.5, false)
	if j.wins != 2 || j.pairs != 4 {
		t.Fatalf("wins %d/%d, want 2/4 (the tie counts for neither side)", j.wins, j.pairs)
	}
}

func TestRunPrintsOneRowPerWorkloadMetric(t *testing.T) {
	dir := t.TempDir()
	spec := `{"workloads":[{"name":"w1"},{"name":"w2"}],
"end_to_end":[{"name":"latency_p50_us","unit":"us","better":"lower","bound":0.1},
{"name":"throughput_per_s","unit":"1/s","better":"higher","bound":0.1}]}`
	write := func(name string, lat, thr float64) string {
		var buf bytes.Buffer
		for i := 0; i < 10; i++ {
			for _, w := range []string{"w1", "w2"} {
				fmt.Fprintf(&buf, `{"workload":%q,"trace":false,"correct":true,"metrics":{"latency_p50_us":{"value":%g},"throughput_per_s":{"value":%g}}}`+"\n",
					w, lat+float64(i)*0.01, thr-float64(i)*0.01)
			}
			// Traced runs carry other metrics and must be ignored.
			fmt.Fprintf(&buf, `{"workload":"w1","trace":true,"correct":true,"metrics":{"decision.ns_per_op":{"value":1}}}`+"\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	a := write("a.jsonl", 10, 100)
	b := write("b.jsonl", 12, 100)
	var out, errOut bytes.Buffer
	status := run([]string{"-spec", specPath, "-a", a, "-b", b}, &out, &errOut)
	if status != 1 {
		t.Fatalf("status %d, want 1 for a worse row; stderr %s", status, errOut.String())
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (2 workloads x 2 metrics):\n%s", len(rows), out.String())
	}
	for _, r := range rows {
		want := "unchanged"
		if strings.Contains(r, "latency_p50_us") {
			want = "worse"
		}
		if !strings.HasSuffix(r, want) {
			t.Errorf("row %q, want verdict %s", r, want)
		}
	}
}
