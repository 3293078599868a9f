package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/eda-go/moheco/internal/obs"
)

// workloadDef is one named workload of the benchmark; README.md gives the
// reasons for each.
type workloadDef struct {
	name string
	// setup builds the workload for a seed — scenario construction, server
	// start, job list — and runs one untimed warm-up pass. nproc is the
	// served workload's client count.
	setup func(seed uint64, nproc int) (workload, error)
	// scaling is whether round honours roundOpts.workers, so that the
	// traced run can measure engine.scaling. The served workload's worker
	// count is fixed when its server starts.
	scaling bool
}

// warmupSeed seeds the untimed warm-up pass of every workload's set-up.
// It is fixed, so that setup_s measures the same work whatever the
// workload seed.
const warmupSeed = 0x3a7

// workload runs one seed's fixed job list.
type workload interface {
	// round runs the job list once.
	round(o roundOpts) (roundResult, error)
	close()
}

// verifier is a workload with output checks that need reference
// computations, run outside the timed region. verify returns the
// operations it checked and how many failed.
type verifier interface {
	verify() (attempted, failed int, err error)
}

// lockstepper is a workload that reaches the lockstep kernel. lockstep
// returns the evaluator time of one fixed sample set at one lockstep lane
// over the time at the automatic lane count.
type lockstepper interface {
	lockstep() (float64, error)
}

// withRegistry is the served workload: it counts into a private service
// registry as well as obs.Default().
type withRegistry interface {
	registry() *obs.Registry
}

// registryOf returns w's private service registry, nil off the served path.
func registryOf(w workload) *obs.Registry {
	if s, ok := w.(withRegistry); ok {
		return s.registry()
	}
	return nil
}

// roundOpts configures one pass over the job list.
type roundOpts struct {
	// idx numbers the round; served-mix folds it into its request seeds so
	// that each round sends new requests rather than cache hits only.
	idx int
	// tr records spans when non-nil.
	tr *tracer
	// workers is the compute goroutine count (the engine's Workers).
	workers int
	// jobs, when positive, runs only the first jobs of the list (the
	// paired worker-scaling rounds of the traced run).
	jobs int
}

// jobResult is the outcome of one operation of a round.
type jobResult struct {
	latency time.Duration
	hit     bool // answered from the service cache or coalesced
	failed  bool // errored or failed its output check
	digest  string
}

// roundResult is the outcome of one pass.
type roundResult struct {
	wall time.Duration
	sims int64
	jobs []jobResult
	// layer holds what only the workload can see: generation stamps and
	// population snapshots (core, ocba, yieldsim), for the traced run.
	layer layerObs
}

// layerObs are per-layer observations taken from Result and GenRecord
// fields and from OnGeneration stamps.
type layerObs struct {
	generations, nmTriggers int
	genSeconds              []float64 // wall time between OnGeneration calls
	genSims                 []float64 // simulations per generation, from CumSims
	topDecileShare          []float64 // per generation, share of sims on the top 10% by yield
	simCounts, sampleCounts int64     // Σ SimCounts, Σ SampleCounts
}

func (a *layerObs) merge(b layerObs) {
	a.generations += b.generations
	a.nmTriggers += b.nmTriggers
	a.genSeconds = append(a.genSeconds, b.genSeconds...)
	a.genSims = append(a.genSims, b.genSims...)
	a.topDecileShare = append(a.topDecileShare, b.topDecileShare...)
	a.simCounts += b.simCounts
	a.sampleCounts += b.sampleCounts
}

// digests concatenates the round's result digests, for comparing a traced
// round with an untraced one.
func (r roundResult) digests() string {
	var b strings.Builder
	for _, j := range r.jobs {
		b.WriteString(j.digest)
		b.WriteByte(';')
	}
	return b.String()
}

var workloads = []workloadDef{
	{
		name:    "optimize-paper",
		setup:   setupOptimize,
		scaling: true,
	},
	{
		name: "yield-ac",
		setup: func(seed uint64, _ int) (workload, error) {
			return setupYield("foldedcascode-spice", 4096, seed)
		},
		scaling: true,
	},
	{
		name:  "served-mix",
		setup: setupServed,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	sort.Strings(names)
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}
