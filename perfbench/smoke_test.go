package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the output's last line parses and carries every metric of
// the pass with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemon fleets")
	}
	for _, name := range workloadNames() {
		for trace, want := range map[string][]metric{"0": endToEnd, "1": perLayer} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "0.2", "--trace", trace, "--tiny", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&out); err != nil {
					t.Fatalf("last line does not parse: %v\n%s", err, lines[len(lines)-1])
				}
				if out.Correct == nil || out.Attempted == nil || out.Failed == nil || *out.Attempted < 1 {
					t.Fatalf("missing or empty result fields: %s", lines[len(lines)-1])
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.name]
					if !ok || got.Value == nil || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want a value in %s", m.name, got, m.unit)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root names only workloads this program runs and exactly the metrics it
// prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the program", w.Name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, want []metric) {
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(want))
			return
		}
		for i, m := range want {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)", kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
