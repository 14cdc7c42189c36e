package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// lastLine decodes the result line realMain printed.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
	same := func(kind string, listed []struct{ Name, Unit string }, code []metricSpec) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(listed), len(code))
			return
		}
		for i := range code {
			if listed[i].Name != code[i].name || listed[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, listed[i].Name, listed[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// A corrupted color must fail the output check: correct=false, exit 1.
func TestCorruptedColorFailsCheck(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, corrupt := range []bool{false, true} {
		var out, errOut bytes.Buffer
		code := realMain([]string{"--workload", "paper-churn", "--seed", "7", "--seconds", "1"}, &out, &errOut, corrupt)
		res := lastLine(t, out.String())
		if corrupt && (code != 1 || res.Correct) {
			t.Errorf("corrupted run: exit %d, correct=%v; want exit 1, correct=false", code, res.Correct)
		}
		if !corrupt && (code != 0 || !res.Correct) {
			t.Errorf("clean run: exit %d, correct=%v; want exit 0, correct=true\n%s", code, res.Correct, errOut.String())
		}
	}
}

// Two in-process runs with one seed give identical quality numbers and
// final assignments, and another seed gives others.
func TestDeterminism(t *testing.T) {
	small := largeIncremental
	small.params.N = 200
	small.params.ArenaW, small.params.ArenaH = 141.4213562373095, 141.4213562373095
	small.churn = 200
	for _, s := range []inprocSpec{paperChurn, small} {
		run := func(seed uint64) *passResult {
			b, _, err := s.measure(runConfig{seed: seed}, 2*passes/s.roundsPerSecond, make([]bool, passes))
			if err != nil {
				t.Fatal(err)
			}
			if err := firstErr(b.passErr(), s.checkStandalone(b.passes[0].rounds)); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			return b.passes[0]
		}
		a, b, c := run(11), run(11), run(12)
		if len(a.digests) != 2 {
			t.Fatalf("%s: %d rounds, want 2", s.name, len(a.digests))
		}
		if !slices.Equal(a.digests, b.digests) || !slices.Equal(a.recodings, b.recodings) || !slices.Equal(a.maxColors, b.maxColors) {
			t.Errorf("%s: one seed, two outcomes: %v %v %v vs %v %v %v", s.name, a.digests, a.recodings, a.maxColors, b.digests, b.recodings, b.maxColors)
		}
		if slices.Equal(a.digests, c.digests) {
			t.Errorf("%s: seeds 11 and 12 gave the same assignments", s.name)
		}
	}
}

func TestClusterRWChecksPass(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := realMain([]string{"--workload", "cluster-rw", "--seed", "3", "--seconds", "0.5", "--trace", trace}, &out, &errOut, false)
		res := lastLine(t, out.String())
		if code != 0 || !res.Correct || res.Failed != 0 {
			t.Fatalf("trace %s: exit %d, result %+v\n%s", trace, code, res, errOut.String())
		}
		want, positive := endToEnd, endToEnd
		if trace == "1" {
			want, positive = perLayer, []metricSpec{{"cluster.ship_rpcs_per_event", ""}, {"serve.fsyncs_per_event", ""}, {"loadgen.write_ack_p50_ms", ""}}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range positive {
			if res.Metrics[m.name].Value <= 0 {
				t.Errorf("trace %s: %s = %v, want > 0", trace, m.name, res.Metrics[m.name].Value)
			}
		}
	}
}
