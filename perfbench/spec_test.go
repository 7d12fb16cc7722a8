package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root must declare exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, program has %s", got, want)
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		prog [][2]string
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", c.name, len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.prog[i][0] || m.Unit != c.prog[i][1] {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", c.name, i, m.Name, m.Unit, c.prog[i][0], c.prog[i][1])
			}
		}
	}
}

func TestCheckNames(t *testing.T) {
	m := metrics{}
	for _, nu := range endToEnd {
		m.set(nu[0], 1, nu[1])
	}
	if err := checkNames(m, false); err != nil {
		t.Fatal(err)
	}
	m.set("extra", 1, "ms")
	delete(m, "setup_s")
	err := checkNames(m, false)
	if err == nil || !strings.Contains(err.Error(), "missing setup_s") || !strings.Contains(err.Error(), "undeclared extra") {
		t.Errorf("checkNames = %v", err)
	}
}

// The shared-work property: sweep-diff repeats every cell under its
// second seed, sweep-null repeats nothing.
func TestRepeatFrac(t *testing.T) {
	for name, want := range map[string]float64{"sweep-diff": 0.5, "sweep-null": 0, "sweep-impaired": 0} {
		s, err := newSweep(name, config{seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if s.repeatFrac != want {
			t.Errorf("%s: repeat_frac %g, want %g", name, s.repeatFrac, want)
		}
	}
}

// Every cell a workload can run has a recorded expected outcome.
func TestTableCoversEveryCell(t *testing.T) {
	tab, err := loadTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tableCells() {
		if _, ok := tab[c.key()]; !ok {
			t.Errorf("no expected outcome for %s", c.key())
		}
	}
}

func TestCheckDescribesTheDifference(t *testing.T) {
	c := cell{Network: "gfc", Trace: "economist", Body: 8192}
	tab := table{c.key(): {Differentiated: true, Technique: "ip-ttl-limited", Rounds: 73, Bytes: 200}}
	if msg := tab.check(c, outcome{Differentiated: true, Technique: "ip-ttl-limited", Rounds: 73, Bytes: 200}); msg != "" {
		t.Errorf("matching outcome reported: %s", msg)
	}
	msg := tab.check(c, outcome{Differentiated: true, Technique: "ip-fragment", Rounds: 80, Bytes: 200})
	want := "gfc/economist/h=0/b=8192: technique ip-fragment, want ip-ttl-limited; rounds 80, want 73"
	if msg != want {
		t.Errorf("check = %q\nwant   %q", msg, want)
	}
	if msg := tab.check(cell{Network: "x", Trace: "y"}, outcome{}); !strings.Contains(msg, "no expected outcome") {
		t.Errorf("unknown cell: %q", msg)
	}
}
