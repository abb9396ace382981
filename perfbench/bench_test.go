package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the tables the benchmark
// prints from in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string
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
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestTracedCountsMatchUntraced is the traced-run fidelity check: for a
// seed, the traced simulation's exact counts (grants, messages, engine
// events and everything else fixed by the seed) equal the untraced ones.
func TestTracedCountsMatchUntraced(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		plain, err := runChurn(seed, 0, 60_000*delta, false, nil, new(hist))
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runChurn(seed, 0, 60_000*delta, true, newSpanRecorder(1<<10), new(hist))
		if err != nil {
			t.Fatal(err)
		}
		if plain.exact() != traced.exact() {
			t.Errorf("seed %d: traced %+v, untraced %+v", seed, traced.exact(), plain.exact())
		}
		if traced.core.calls == 0 || plain.core.calls != 0 {
			t.Errorf("seed %d: core calls traced=%d untraced=%d", seed, traced.core.calls, plain.core.calls)
		}
		if plain.grants == 0 || plain.failures == 0 {
			t.Errorf("seed %d: a run with %d grants and %d crashes exercises nothing", seed, plain.grants, plain.failures)
		}
	}

	// Both sim workloads compare their traced and untraced passes
	// themselves and report a mismatch as a correctness failure.
	res, err := simKeyedWith(options{seed: 3, seconds: 1, traced: true, spans: newSpanRecorder(1 << 10)}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) != 0 {
		t.Errorf("sim-keyed: %v", res.problems)
	}
	if res.metrics["sim.events_per_grant"] <= 0 || res.metrics["shard.effective_workers"] <= 0 {
		t.Errorf("sim-keyed per-layer metrics missing: %v", res.metrics)
	}
}

// TestCorrectnessFailureFailsRun: a run whose outputs are wrong exits
// non-zero, and its result line says so.
func TestCorrectnessFailureFailsRun(t *testing.T) {
	workloads["broken"] = func(o options) (*result, error) {
		r := newResult()
		r.attempted = 1
		r.check(false, "deliberately wrong")
		return r, nil
	}
	defer delete(workloads, "broken")
	chdir(t, t.TempDir())
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "broken", "--seed", "1", "--seconds", "1"}, &out, &errs); code == 0 {
		t.Fatal("a correctness failure exited 0")
	}
	if !strings.Contains(lastLine(out.String()), `"correct":false`) {
		t.Errorf("result line: %s", lastLine(out.String()))
	}
	if code := run([]string{"--workload", "nope"}, &out, &errs); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// TestLiveResultLine runs live-mem briefly and checks the result line
// carries every metric with its unit.
func TestLiveResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live cluster for seconds")
	}
	chdir(t, t.TempDir())
	for trace, want := range map[string][]metric{"0": endToEnd, "1": perLayer} {
		var out, errs bytes.Buffer
		start := time.Now()
		if code := run([]string{"--workload", "live-mem", "--seed", "1", "--seconds", "1", "--trace", trace}, &out, &errs); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errs.String())
		}
		var res struct {
			Correct           bool
			Attempted, Failed int64
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lastLine(out.String())), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %+v", trace, res)
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("trace %s: metric %s = %+v", trace, m.name, got)
			}
		}
		t.Logf("trace %s took %v", trace, time.Since(start))
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// chdir moves the test into dir, where runs write their reports, until
// it ends.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	})
}
