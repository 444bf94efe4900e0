package workflow

import (
	"strings"
	"testing"
)

func gangWf(name string) Workflow {
	return Workflow{
		Name:  name,
		Tasks: []Task{{Benchmark: "fleet-a000", Size: "1x", Iterations: 1}},
	}
}

func TestGangValidateShape(t *testing.T) {
	g := Gang{Name: "train-4", Members: []Workflow{gangWf("w0"), gangWf("w1")}}
	if err := g.ValidateShape(); err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 || g.TaskCount() != 2 {
		t.Fatalf("size/tasks = %d/%d", g.Size(), g.TaskCount())
	}
}

func TestGangValidateShapeRejects(t *testing.T) {
	cases := []struct {
		name string
		g    Gang
		want string
	}{
		{"empty name", Gang{Members: []Workflow{gangWf("w0")}}, "empty name"},
		{"no members", Gang{Name: "g"}, "no members"},
		{"duplicate member", Gang{Name: "g", Members: []Workflow{gangWf("w0"), gangWf("w0")}}, "duplicate member"},
	}
	for _, c := range cases {
		err := c.g.ValidateShape()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestSingleGang(t *testing.T) {
	g := Single(gangWf("solo"))
	if err := g.ValidateShape(); err != nil {
		t.Fatal(err)
	}
	if g.Name != "solo" || g.Size() != 1 {
		t.Fatalf("single gang = %+v", g)
	}
}
