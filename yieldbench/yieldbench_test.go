package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/yieldsim"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Layer: "round", Parent: -1, Start: 0, End: 100},
		{Layer: "core", Parent: 0, Start: 10, End: 90},
		// Two overlapping evaluator calls and one that spills past the
		// parent's end: the union inside [10, 90) is [20, 50) ∪ [60, 90).
		{Layer: "circuits", Parent: 1, Start: 20, End: 40},
		{Layer: "circuits", Parent: 1, Start: 30, End: 50},
		{Layer: "circuits", Parent: 1, Start: 60, End: 95},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"round": 20, "core": 20, "circuits": 20 + 20 + 35}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}

// TestTracedKeepsBatchPath is the traced run's fidelity test: with the
// evaluator wrapper in place the yield bits and the spice and engine counts
// must match an untraced estimate of the same samples, which proves the
// wrapper kept the batched and lockstep path.
func TestTracedKeepsBatchPath(t *testing.T) {
	for _, name := range []string{"foldedcascode-spice", "foldedcascode-tran"} {
		p := scenario.MustGet(name).New()
		x, _ := scenario.ReferenceDesign(p)
		estimate := func(tr *tracer) (uint64, counters) {
			c0 := readCounters(nil)
			y, _, err := yieldsim.ReferenceCtx(nil, traced(p, tr), x, 256, 7, yieldsim.RefOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			return math.Float64bits(y), readCounters(nil).sub(c0)
		}
		yu, du := estimate(nil)
		tr := newTracer()
		yt, dt := estimate(tr)
		if yu != yt {
			t.Errorf("%s: traced yield bits %x, untraced %x", name, yt, yu)
		}
		for _, k := range exactSeries {
			if du[k] != dt[k] {
				t.Errorf("%s: %s is %g traced, %g untraced", name, k, dt[k], du[k])
			}
		}
		if du["spice_lockstep_lanes_count"] == 0 {
			t.Errorf("%s: the estimate never reached the lockstep kernel", name)
		}
		if n := len(tr.snapshot()); n == 0 {
			t.Errorf("%s: no evaluator spans recorded", name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's workload and
// metric lists in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
