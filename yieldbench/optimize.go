package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/eda-go/moheco/internal/core"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// optimize-paper runs MOHECO on the paper's examples 1 and 2 with seeds
// derived from the workload seed. Every run stops at the same simulation
// budget (Options.SimBudget, the program's equal-budget knob):
// the target yield cannot be reached, stall stopping is off and the
// generation cap is out of reach. Fixing the generation count instead leaves
// the work to the trajectory — over ten workload seeds, rounds of eight
// 30-generation runs spent between 62k and 166k simulations — and so does a
// generation cap a run can hit: a telescopic run that never becomes feasible
// then stops early and cheaply. Many short runs per round average the
// remaining per-run differences (how much of the budget goes to nominal
// screening, where the last generation overshoots the budget).
const (
	optRunsPerScenario = 8
	optSimBudget       = 10000
	optMaxGenerations  = 1 << 20
	optRefSamples      = 20000 // reference estimate of each BestX, outside the timed region
)

var optScenarios = []string{"foldedcascode", "telescopic"}

type optJob struct {
	scenario int
	seed     uint64
}

type optimizeWL struct {
	probs []problem.Problem
	jobs  []optJob
	// first holds each job's result from its first round; later rounds
	// must reproduce it bit for bit, and verify checks it against a
	// reference estimate.
	first []*core.Result
}

func setupOptimize(seed uint64, _ int) (workload, error) {
	w := &optimizeWL{}
	for _, name := range optScenarios {
		sc, err := scenario.Get(name)
		if err != nil {
			return nil, err
		}
		w.probs = append(w.probs, sc.New())
	}
	for i := 0; i < optRunsPerScenario; i++ {
		for s := range optScenarios {
			w.jobs = append(w.jobs, optJob{scenario: s, seed: randx.DeriveSeed(seed, 0x0b7, uint64(s), uint64(i))})
		}
	}
	w.first = make([]*core.Result, len(w.jobs))
	// Warm-up, untimed: one run on each scenario.
	for s := range optScenarios {
		if _, err := w.run(optJob{scenario: s, seed: warmupSeed}, roundOpts{workers: computeWorkers}, nil); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *optimizeWL) options(j optJob, workers int) core.Options {
	o := core.DefaultOptions(core.MethodMOHECO, scenario.MustGet(optScenarios[j.scenario]).DefaultMaxSims)
	o.Seed = j.seed
	o.Workers = workers
	o.TargetYield = 2 // a yield never reaches 2: no target stop
	o.StallStop = math.MaxInt32
	o.MaxGenerations = optMaxGenerations
	o.SimBudget = optSimBudget
	return o
}

// run executes one job; lo, when non-nil, receives the layer observations
// of a traced run.
func (w *optimizeWL) run(j optJob, o roundOpts, lo *layerObs) (*core.Result, error) {
	opts := w.options(j, o.workers)
	p := traced(w.probs[j.scenario], o.tr)
	if o.tr == nil {
		return core.Optimize(p, opts)
	}
	opts.RecordPopulations = true
	var stamps []time.Time
	var cum []int64
	opts.OnGeneration = func(r core.GenRecord) {
		stamps = append(stamps, time.Now())
		cum = append(cum, r.CumSims)
		recordPopulation(lo, r)
	}
	id := o.tr.enter(layerCore, 0)
	res, err := core.Optimize(p, opts)
	o.tr.leave(id)
	if err != nil {
		return nil, err
	}
	lo.generations += res.Generations
	lo.nmTriggers += res.NMTriggers
	for i := 1; i < len(stamps); i++ {
		lo.genSeconds = append(lo.genSeconds, stamps[i].Sub(stamps[i-1]).Seconds())
		lo.genSims = append(lo.genSims, float64(cum[i]-cum[i-1]))
	}
	return res, nil
}

// recordPopulation folds one generation's feasible-trial snapshot into the
// OCBA and acceptance-sampling observations: the share of the generation's
// simulations spent on its top 10% of candidates by estimated yield (the
// paper's Fig. 3) and the simulations-per-sample ratio.
func recordPopulation(lo *layerObs, r core.GenRecord) {
	total := 0
	for i := range r.SimCounts {
		total += r.SimCounts[i]
		lo.simCounts += int64(r.SimCounts[i])
		lo.sampleCounts += int64(r.SampleCounts[i])
	}
	if total == 0 {
		return
	}
	idx := make([]int, len(r.Yields))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r.Yields[idx[a]] > r.Yields[idx[b]] })
	top := (len(idx) + 9) / 10
	share := 0
	for _, i := range idx[:top] {
		share += r.SimCounts[i]
	}
	lo.topDecileShare = append(lo.topDecileShare, float64(share)/float64(total))
}

func (w *optimizeWL) round(o roundOpts) (roundResult, error) {
	jobs := w.jobs
	if o.jobs > 0 {
		jobs = jobs[:o.jobs]
	}
	var rr roundResult
	start := time.Now()
	for i, j := range jobs {
		t0 := time.Now()
		res, err := w.run(j, o, &rr.layer)
		if err != nil {
			return rr, fmt.Errorf("optimize %s seed %d: %w", optScenarios[j.scenario], j.seed, err)
		}
		jr := jobResult{latency: time.Since(t0), digest: optDigest(res)}
		jr.failed = !w.check(i, res)
		rr.sims += res.TotalSims
		rr.jobs = append(rr.jobs, jr)
	}
	rr.wall = time.Since(start)
	return rr, nil
}

func optDigest(r *core.Result) string {
	s := fmt.Sprintf("%x/%d/%d", math.Float64bits(r.BestYield), r.TotalSims, r.Generations)
	for _, v := range r.BestX {
		s += fmt.Sprintf("/%x", math.Float64bits(v))
	}
	return s
}

// check applies the in-round output checks to job i's result: BestX inside
// the bounds, a positive simulation count, and the same bits as the job's
// first round.
func (w *optimizeWL) check(i int, r *core.Result) bool {
	p := w.probs[w.jobs[i].scenario]
	if problem.CheckDesign(p, r.BestX) != nil || r.TotalSims <= 0 {
		return false
	}
	if w.first[i] == nil {
		w.first[i] = r
		return true
	}
	return optDigest(w.first[i]) == optDigest(r)
}

// verify checks each job's reported yield against a reference estimate of
// its BestX. An infeasible result reports no yield and is not checked.
func (w *optimizeWL) verify() (int, int, error) {
	attempted, failed := 0, 0
	for i, r := range w.first {
		if r == nil || !r.Feasible {
			continue
		}
		p := w.probs[w.jobs[i].scenario]
		ref, _, err := yieldsim.ReferenceCtx(nil, p, r.BestX, optRefSamples, refSeed, yieldsim.RefOptions{})
		if err != nil {
			return attempted, failed, err
		}
		attempted++
		if tol := binomialTolerance(ref, r.BestSamples, optRefSamples); math.Abs(r.BestYield-ref) > tol {
			failed++
			warnf("optimize %s seed %d: reported yield %.4f, reference %.4f over %d samples (tolerance %.4f)",
				optScenarios[w.jobs[i].scenario], w.jobs[i].seed, r.BestYield, ref, optRefSamples, tol)
		}
	}
	return attempted, failed, nil
}

func (w *optimizeWL) close() {}
