package circuits

import (
	"math"
	"testing"

	"github.com/eda-go/moheco/internal/constraint"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/sample"
)

// all three problems, generically.
func allProblems() []problem.Problem {
	return []problem.Problem{NewCommonSource(), NewFoldedCascode(), NewTelescopic()}
}

func TestProblemContracts(t *testing.T) {
	for _, p := range allProblems() {
		lo, hi := p.Bounds()
		if len(lo) != p.Dim() || len(hi) != p.Dim() {
			t.Fatalf("%s: bounds length mismatch", p.Name())
		}
		for i := range lo {
			if lo[i] >= hi[i] {
				t.Errorf("%s: bounds[%d] inverted", p.Name(), i)
			}
		}
		if len(p.Specs()) == 0 {
			t.Errorf("%s: no specs", p.Name())
		}
		if p.VarDim() <= 0 {
			t.Errorf("%s: VarDim = %d", p.Name(), p.VarDim())
		}
	}
}

func TestPaperVariationDimensions(t *testing.T) {
	// The paper's variable accounting.
	if d := NewFoldedCascode().VarDim(); d != 80 {
		t.Errorf("folded-cascode VarDim = %d, want 80", d)
	}
	if d := NewTelescopic().VarDim(); d != 123 {
		t.Errorf("telescopic VarDim = %d, want 123", d)
	}
}

func TestReferenceDesignsFeasible(t *testing.T) {
	type refProblem interface {
		problem.Problem
		ReferenceDesign() []float64
	}
	for _, p := range []refProblem{NewCommonSource(), NewFoldedCascode(), NewTelescopic()} {
		x := p.ReferenceDesign()
		if err := problem.CheckDesign(p, x); err != nil {
			t.Fatalf("%s: reference design out of bounds: %v", p.Name(), err)
		}
		perf, err := p.Evaluate(x, nil)
		if err != nil {
			t.Fatalf("%s: evaluate: %v", p.Name(), err)
		}
		for i, s := range p.Specs() {
			if !s.Satisfied(perf[i]) {
				t.Errorf("%s: reference violates %v (got %g)", p.Name(), s, perf[i])
			}
		}
	}
}

func TestReferenceDesignYields(t *testing.T) {
	if testing.Short() {
		t.Skip("MC sampling in -short mode")
	}
	type refProblem interface {
		problem.Problem
		ReferenceDesign() []float64
	}
	cases := []struct {
		p        refProblem
		minYield float64
	}{
		{NewFoldedCascode(), 0.95},
		{NewTelescopic(), 0.80},
	}
	for _, c := range cases {
		x := c.p.ReferenceDesign()
		rng := randx.New(2)
		pts := sample.LHS{}.Draw(rng, 1000, c.p.VarDim())
		pass := 0
		for _, xi := range pts {
			ok, err := problem.PassFail(c.p, x, xi)
			if err != nil {
				t.Fatalf("%s: %v", c.p.Name(), err)
			}
			if ok {
				pass++
			}
		}
		y := float64(pass) / float64(len(pts))
		if y < c.minYield {
			t.Errorf("%s: reference yield %.3f < %.2f", c.p.Name(), y, c.minYield)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	for _, p := range allProblems() {
		rng := randx.New(3)
		x := problem.RandomDesign(p, rng)
		xi := sample.PMC{}.Draw(rng, 1, p.VarDim())[0]
		a, err := p.Evaluate(x, xi)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		b, err := p.Evaluate(x, xi)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: non-deterministic perf[%d]", p.Name(), i)
			}
		}
	}
}

// TestEvaluateAllocs guards the per-sample path of the behavioural
// evaluators: the perturbed cards and devices live in per-call arrays and
// the inter-die block is mapped once per sample, so a sample costs the
// performance vector and little else — not one card and device per slot.
func TestEvaluateAllocs(t *testing.T) {
	const maxAllocs = 4
	for _, p := range allProblems() {
		rng := randx.New(5)
		x := p.(interface{ ReferenceDesign() []float64 }).ReferenceDesign()
		xi := sample.PMC{}.Draw(rng, 1, p.VarDim())[0]
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := p.Evaluate(x, xi); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%s: %.0f allocations per Evaluate, want <= %d", p.Name(), allocs, maxAllocs)
		}
	}
}

func TestEvaluateRejectsBadInputs(t *testing.T) {
	for _, p := range allProblems() {
		if _, err := p.Evaluate(make([]float64, p.Dim()+1), nil); err == nil {
			t.Errorf("%s: accepted wrong design dimension", p.Name())
		}
		lo, _ := p.Bounds()
		if _, err := p.Evaluate(lo, make([]float64, 3)); err == nil {
			t.Errorf("%s: accepted wrong variation dimension", p.Name())
		}
	}
}

func TestEvaluateFiniteOnRandomInputs(t *testing.T) {
	// Robustness/failure-injection: any in-bounds design and ±5σ variation
	// vector must produce finite performances (bad designs express as spec
	// violations, not NaN/Inf or panics).
	for _, p := range allProblems() {
		rng := randx.New(11)
		for trial := 0; trial < 200; trial++ {
			x := problem.RandomDesign(p, rng)
			xi := make([]float64, p.VarDim())
			for i := range xi {
				xi[i] = 5 * (rng.Float64()*2 - 1)
			}
			perf, err := p.Evaluate(x, xi)
			if err != nil {
				t.Fatalf("%s trial %d: %v", p.Name(), trial, err)
			}
			for i, v := range perf {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s trial %d: perf[%d] = %v", p.Name(), trial, i, v)
				}
			}
		}
	}
}

func TestVariationShiftsPerformance(t *testing.T) {
	// A 2σ inter-die threshold shift must move the performance vector:
	// the variation model is wired through, not decorative.
	for _, tc := range []struct {
		p   problem.Problem
		ref []float64
	}{
		{NewFoldedCascode(), NewFoldedCascode().ReferenceDesign()},
		{NewTelescopic(), NewTelescopic().ReferenceDesign()},
	} {
		nomPerf, err := tc.p.Evaluate(tc.ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		xi := make([]float64, tc.p.VarDim())
		// DELUON (NMOS mobility) is index 2 in both decks. A pure VTH0Rn
		// shift is largely cancelled by the ratioed bias mirrors — by
		// design — so mobility is the right probe here.
		xi[2] = 2
		perf, err := tc.p.Evaluate(tc.ref, xi)
		if err != nil {
			t.Fatal(err)
		}
		moved := false
		for i := range perf {
			if math.Abs(perf[i]-nomPerf[i]) > 1e-12*(1+math.Abs(nomPerf[i])) {
				moved = true
			}
		}
		if !moved {
			t.Errorf("%s: 2σ VTH shift left all performances unchanged", tc.p.Name())
		}
	}
}

func TestMismatchCreatesOffset(t *testing.T) {
	p := NewTelescopic()
	x := p.ReferenceDesign()
	nomPerf, _ := p.Evaluate(x, nil)
	offIdx := -1
	for i, s := range p.Specs() {
		if s.Name == "offset" {
			offIdx = i
		}
	}
	if offIdx < 0 {
		t.Fatal("no offset spec")
	}
	if nomPerf[offIdx] != 0 {
		t.Errorf("nominal offset = %v, want 0 (symmetric circuit)", nomPerf[offIdx])
	}
	// Mismatch on one stage-2 sink produces offset.
	xi := make([]float64, p.VarDim())
	base := 47 + 4*tsSnkL // intra block of the left sink
	xi[base+1] = 3        // VTH0 mismatch
	perf, _ := p.Evaluate(x, xi)
	if perf[offIdx] <= 0 {
		t.Errorf("offset with sink mismatch = %v, want > 0", perf[offIdx])
	}
}

func TestPowerScalesWithCurrent(t *testing.T) {
	p := NewFoldedCascode()
	x := p.ReferenceDesign()
	perfLo, _ := p.Evaluate(x, nil)
	x2 := append([]float64(nil), x...)
	x2[0] *= 1.5 // IT
	x2[1] *= 1.5 // IC
	perfHi, _ := p.Evaluate(x2, nil)
	if perfHi[4] <= perfLo[4] {
		t.Errorf("power did not increase with current: %v vs %v", perfHi[4], perfLo[4])
	}
	// GBW should rise too (more gm).
	if perfHi[1] <= perfLo[1] {
		t.Errorf("GBW did not increase with current")
	}
}

func TestAreaScalesWithWidth(t *testing.T) {
	p := NewTelescopic()
	x := p.ReferenceDesign()
	perf, _ := p.Evaluate(x, nil)
	x2 := append([]float64(nil), x...)
	x2[7] *= 2 // W9
	perf2, _ := p.Evaluate(x2, nil)
	if perf2[5] <= perf[5] {
		t.Errorf("area did not grow with W9: %v vs %v", perf2[5], perf[5])
	}
}

func TestStarvedCascodeViolatesSpecs(t *testing.T) {
	// IT >> IC starves the folded branch; the design must be infeasible.
	p := NewFoldedCascode()
	x := p.ReferenceDesign()
	x2 := append([]float64(nil), x...)
	x2[0] = 480e-6 // IT
	x2[1] = 20e-6  // IC: branch current collapses
	perf, err := p.Evaluate(x2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if constraint.AllSatisfied(p.Specs(), perf) {
		t.Error("starved cascode should violate specs")
	}
}
