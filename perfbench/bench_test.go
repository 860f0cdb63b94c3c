package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

type benchFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadBench(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestCatalogMatchesBenchmarkJSON pins BENCHMARK.json to the metrics and
// workloads the command actually reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bf := loadBench(t)
	if len(bf.EndToEnd) != len(gated) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the command reports %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(gated), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != gated[i].name || m.Unit != gated[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, command reports %s %s", i, m.Name, m.Unit, gated[i].name, gated[i].unit)
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, command reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny size through the same
// code as the benchmark, with and without tracing, and checks the output
// contract: the checks pass, every named metric is printed with its unit,
// and the last line is the result object.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range []string{"seq-fig5a", "shard-65k", "live-256"} {
		for _, traced := range []bool{false, true} {
			r, err := execute(name, 3, 1, traced, tiny)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			var out bytes.Buffer
			if code := report(r, t.TempDir(), &out, io.Discard); code != 0 {
				t.Fatalf("%s trace=%v: exit code %d\n%s", name, traced, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool
				Attempted uint64
				Failed    uint64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", name, traced, err)
			}
			if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, last.Correct, last.Attempted, last.Failed)
			}
			want, prefix := gated, "e2e   "
			if traced {
				want, prefix = perLayer, "layer "
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(last.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := last.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
				if !strings.Contains(out.String(), prefix+d.name) {
					t.Errorf("%s trace=%v: no report line for %s", name, traced, d.name)
				}
			}
			if name == "live-256" && !traced && !strings.Contains(out.String(), "e2e   probe_abort_pct") {
				t.Errorf("live-256: no report line for probe_abort_pct")
			}
		}
	}
}
