package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// The yield-ac workload estimates a fixed pool of designs around the
// folded-cascode testbench's reference design, so that every estimate can
// be checked against a committed high-sample reference yield.
const (
	poolSpread = 0.02 // each coordinate moves up to ±2% of its range
	poolSeed   = 0x9001
	refSeed    = 0x5eed // reference estimates use a stream no workload draws
)

// poolDesign returns design i of the pool for problem p (whose reference
// design is ref).
func poolDesign(p problem.Problem, ref []float64, i int) []float64 {
	rng := randx.New(randx.DeriveSeed(poolSeed, uint64(i)))
	lo, hi := p.Bounds()
	x := make([]float64, len(ref))
	for k := range x {
		x[k] = ref[k] + (2*rng.Float64()-1)*poolSpread*(hi[k]-lo[k])
	}
	return problem.Clamp(p, x)
}

// refEntry is one committed reference: the pass count of an n-sample plain
// Monte-Carlo estimate of design X.
type refEntry struct {
	Scenario string    `json:"scenario"`
	Design   int       `json:"design"`
	X        []float64 `json:"x"`
	N        int       `json:"n"`
	Seed     uint64    `json:"seed"`
	Yield    float64   `json:"yield"`
}

//go:embed reference.json
var referenceJSON []byte

// references maps scenario name to its pool references, by design index.
func references() (map[string][]refEntry, error) {
	var all []refEntry
	if err := json.Unmarshal(referenceJSON, &all); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	out := map[string][]refEntry{}
	for _, e := range all {
		out[e.Scenario] = append(out[e.Scenario], e)
	}
	return out, nil
}

// poolReferences returns the references of scenario's pool of size
// designs, checking that the committed designs are the ones poolDesign
// generates today.
func poolReferences(scenario string, p problem.Problem, ref []float64, designs int) ([]refEntry, error) {
	all, err := references()
	if err != nil {
		return nil, err
	}
	es := all[scenario]
	if len(es) != designs {
		return nil, fmt.Errorf("reference.json: %d references for %s, want %d (regenerate with -mkref)", len(es), scenario, designs)
	}
	for i, e := range es {
		x := poolDesign(p, ref, i)
		for k := range x {
			if e.Design != i || math.Float64bits(e.X[k]) != math.Float64bits(x[k]) {
				return nil, fmt.Errorf("reference.json: %s design %d differs from the generated pool (regenerate with -mkref)", scenario, i)
			}
		}
	}
	return es, nil
}

// refScenarios are the scenarios the yield-ac workload estimates, with the
// size of their design pool and the sample count of the references.
var refScenarios = []struct {
	name       string
	designs, n int
}{
	{"foldedcascode-spice", 8, 200000},
}

// makeReferences recomputes reference.json at path. It takes minutes; the
// file is committed so that benchmark runs only read it.
func makeReferences(path string) error {
	var all []refEntry
	for _, s := range refScenarios {
		p := scenario.MustGet(s.name).New()
		ref, _ := scenario.ReferenceDesign(p)
		for i := 0; i < s.designs; i++ {
			x := poolDesign(p, ref, i)
			y, _, err := yieldsim.ReferenceCtx(nil, p, x, s.n, refSeed, yieldsim.RefOptions{})
			if err != nil {
				return fmt.Errorf("%s design %d: %w", s.name, i, err)
			}
			fmt.Fprintf(os.Stderr, "%s design %d: yield %.5f over %d samples\n", s.name, i, y, s.n)
			all = append(all, refEntry{Scenario: s.name, Design: i, X: x, N: s.n, Seed: refSeed, Yield: y})
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
