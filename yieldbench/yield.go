package main

import (
	"fmt"
	"math"
	"time"

	"github.com/eda-go/moheco/internal/circuits"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// yieldWL estimates reference Monte-Carlo yields (yieldsim.ReferenceCtx,
// plain MC) of the designs of the committed pool, in a seed-drawn order and
// each from a seed-derived sample stream. Every round estimates every pool
// design: per-sample cost differs by up to 15% between designs, and a
// seed-drawn subset of the pool would carry that into the spread across
// seeds.
type yieldWL struct {
	scenario string
	p        problem.Problem
	scalar   problem.Problem // the same scenario pinned to one lockstep lane
	jobs     []yieldJob
	first    []string // each job's yield bits from its first round
}

type yieldJob struct {
	x    []float64
	n    int
	seed uint64
	ref  refEntry
}

// scalarProblem returns the scenario's problem pinned to one lockstep lane.
func scalarProblem(name string) (problem.Problem, error) {
	switch name {
	case "foldedcascode-spice":
		return circuits.NewFoldedCascodeSpice().SetLanes(1), nil
	case "commonsource-spice":
		return circuits.NewCommonSourceSpice().SetLanes(1), nil
	}
	return nil, fmt.Errorf("no lane setting for scenario %q", name)
}

// setupYield builds a job list of every design of the scenario's pool,
// each estimated over n samples.
func setupYield(name string, n int, seed uint64) (workload, error) {
	sc, err := scenario.Get(name)
	if err != nil {
		return nil, err
	}
	designs := 0
	for _, s := range refScenarios {
		if s.name == name {
			designs = s.designs
		}
	}
	w := &yieldWL{scenario: name, p: sc.New()}
	if w.scalar, err = scalarProblem(name); err != nil {
		return nil, err
	}
	ref, _ := scenario.ReferenceDesign(w.p)
	refs, err := poolReferences(name, w.p, ref, designs)
	if err != nil {
		return nil, err
	}
	order := randx.New(randx.DeriveSeed(seed, 0xde5)).Perm(designs)
	for i := 0; i < designs; i++ {
		e := refs[order[i]]
		w.jobs = append(w.jobs, yieldJob{x: e.X, n: n, seed: randx.DeriveSeed(seed, 0xac, uint64(i)), ref: e})
	}
	w.first = make([]string, len(w.jobs))
	// Warm-up, untimed: the pool's first design.
	_, _, err = yieldsim.ReferenceCtx(nil, w.p, refs[0].X, n, warmupSeed, yieldsim.RefOptions{Workers: computeWorkers})
	return w, err
}

func (w *yieldWL) round(o roundOpts) (roundResult, error) {
	jobs := w.jobs
	if o.jobs > 0 {
		jobs = jobs[:o.jobs]
	}
	p := traced(w.p, o.tr)
	var rr roundResult
	start := time.Now()
	for i, j := range jobs {
		t0 := time.Now()
		var id int32
		if o.tr != nil {
			id = o.tr.enter(layerYieldsim, 0)
		}
		y, n, err := yieldsim.ReferenceCtx(nil, p, j.x, j.n, j.seed, yieldsim.RefOptions{Workers: o.workers})
		if o.tr != nil {
			o.tr.leave(id)
		}
		if err != nil {
			return rr, fmt.Errorf("%s design %d: %w", w.scenario, j.ref.Design, err)
		}
		jr := jobResult{latency: time.Since(t0), digest: fmt.Sprintf("%x", math.Float64bits(y))}
		jr.failed = !w.check(i, y, jr.digest)
		rr.sims += int64(n)
		rr.jobs = append(rr.jobs, jr)
	}
	rr.wall = time.Since(start)
	return rr, nil
}

// check holds job i's estimate to the binomial tolerance around its
// committed reference, and to its first round's bits.
func (w *yieldWL) check(i int, y float64, digest string) bool {
	j := w.jobs[i]
	if tol := binomialTolerance(j.ref.Yield, j.n, j.ref.N); math.Abs(y-j.ref.Yield) > tol {
		warnf("%s design %d: yield %.5f, reference %.5f over %d samples (tolerance %.5f)",
			w.scenario, j.ref.Design, y, j.ref.Yield, j.ref.N, tol)
		return false
	}
	if w.first[i] == "" {
		w.first[i] = digest
		return true
	}
	return w.first[i] == digest
}

// lockstep times the evaluator on one chunk of the first job at the
// automatic lane count and at one lane, alternating, and returns the ratio
// of the median times. The two must agree bit for bit.
func (w *yieldWL) lockstep() (float64, error) {
	j := w.jobs[0]
	return lockstepRatio(w.p, w.scalar, j.x, yieldsim.ChunkSize, j.seed)
}

// lockstepRatio measures the evaluator time of the same n samples of x
// through scalar (one lane) over auto (automatic lanes), median of five
// alternating pairs, on one worker so that only the kernel differs.
func lockstepRatio(auto, scalar problem.Problem, x []float64, n int, seed uint64) (float64, error) {
	var tAuto, tScalar []float64
	for pair := 0; pair < 5; pair++ {
		var bits [2]uint64
		for k, p := range []problem.Problem{auto, scalar} {
			tr := newTracer()
			y, _, err := yieldsim.ReferenceCtx(nil, traced(p, tr), x, n, seed, yieldsim.RefOptions{Workers: 1})
			if err != nil {
				return 0, err
			}
			bits[k] = math.Float64bits(y)
			var busy time.Duration
			for _, s := range tr.snapshot() {
				busy += s.dur()
			}
			if k == 0 {
				tAuto = append(tAuto, busy.Seconds())
			} else {
				tScalar = append(tScalar, busy.Seconds())
			}
		}
		if bits[0] != bits[1] {
			return 0, fmt.Errorf("lockstep and one-lane yields differ: %x vs %x", bits[0], bits[1])
		}
	}
	return median(tScalar) / median(tAuto), nil
}

func (w *yieldWL) close() {}
