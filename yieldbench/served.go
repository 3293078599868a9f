package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eda-go/moheco/internal/obs"
	"github.com/eda-go/moheco/internal/problem"
	"github.com/eda-go/moheco/internal/randx"
	"github.com/eda-go/moheco/internal/scenario"
	"github.com/eda-go/moheco/internal/service"
	"github.com/eda-go/moheco/internal/yieldsim"
)

// served-mix: one in-process service.Server behind loopback HTTP, running
// one job at a time on one worker (computeWorkers), and nproc closed-loop
// service.Clients. Each client sends a fixed list of requests per round,
// derived from (seed, round, client).
const (
	servedYieldScenario = "commonsource-spice"
	servedOptScenario   = "commonsource"
	servedYieldSamples  = 2 * yieldsim.ChunkSize
	servedOptGens       = 4
	servedOptMaxSims    = 100
	servedSpread        = 0.02 // design coordinates move up to ±2% of their range
	// Per client and round: new yield jobs, repeats of a yield request from
	// either client's list (a cache hit or a coalesced answer, or — when
	// the repeat is sent first — the computing request itself), and short
	// optimize jobs. The mix is synthetic: there is no recorded traffic to
	// take proportions from, and README.md says which counts follow from a
	// requirement and which are a choice.
	servedYields  = 9 // a choice: fills a 12-request list, computed jobs dominate
	servedRepeats = 2 // the least that gives service.hit_p50_s ten samples in a 35 s traced run
	servedOpts    = 1 // the least that reaches the optimize path every round
	// tracedSuffix names the scenario aliases traced rounds request: the
	// same problems behind the span-recording evaluator wrapper. Distinct
	// names are distinct cache keys, so a traced round recomputes exactly
	// what the untraced round of the same index computed.
	tracedSuffix = ".traced"
)

// servedTracer is the tracer the traced scenario aliases record into.
var servedTracer atomic.Pointer[tracer]

var registerAliases sync.Once

func registerTracedAliases() {
	registerAliases.Do(func() {
		for _, name := range []string{servedYieldScenario, servedOptScenario} {
			sc := scenario.MustGet(name)
			base := sc.New
			sc.Name += tracedSuffix
			sc.New = func() problem.Problem { return traced(base(), servedTracer.Load()) }
			scenario.Register(sc)
		}
	})
}

type servedKind int

const (
	kindYield servedKind = iota
	kindRepeat
	kindOptimize
)

type servedReq struct {
	kind  servedKind
	yield service.YieldRequest
	opt   service.OptimizeRequest
}

// servedCheck is a served yield to recompute locally, bit for bit.
type servedCheck struct {
	x    []float64
	n    int
	seed uint64
	bits uint64
}

type servedWL struct {
	seed    uint64
	reg     *obs.Registry
	srv     *service.Server
	hs      *http.Server
	serve   chan error
	httpc   *http.Client
	clients []*service.Client
	yieldP  problem.Problem
	optP    problem.Problem
	scalar  problem.Problem
	x0      []float64
	checks  []servedCheck
}

func setupServed(seed uint64, nproc int) (workload, error) {
	registerTracedAliases()
	w := &servedWL{seed: seed, reg: obs.NewRegistry()}
	w.yieldP = scenario.MustGet(servedYieldScenario).New()
	w.optP = scenario.MustGet(servedOptScenario).New()
	var err error
	if w.scalar, err = scalarProblem(servedYieldScenario); err != nil {
		return nil, err
	}
	w.x0, _ = scenario.ReferenceDesign(w.yieldP)
	w.srv = service.New(service.Config{Workers: computeWorkers, Jobs: 1, Metrics: w.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		return nil, err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.serve = make(chan error, 1)
	go func() { w.serve <- w.hs.Serve(ln) }()
	w.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc}}
	for i := 0; i < nproc; i++ {
		c := service.NewClient("http://" + ln.Addr().String())
		c.HTTPClient = w.httpc
		w.clients = append(w.clients, c)
	}
	// Warm-up: one new yield job and one optimize job, on keys no round
	// uses.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	warmed := map[servedKind]bool{kindRepeat: true}
	for _, r := range w.requests(warmupSeed, -1, false)[0] {
		if warmed[r.kind] {
			continue
		}
		warmed[r.kind] = true
		if _, err := w.send(ctx, w.clients[0], r, nil); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// requests builds every client's request list for round idx from seed.
func (w *servedWL) requests(seed uint64, idx int, tracedRound bool) [][]servedReq {
	suffix := ""
	if tracedRound {
		suffix = tracedSuffix
	}
	lo, hi := w.yieldP.Bounds()
	lists := make([][]servedReq, len(w.clients))
	var fresh []service.YieldRequest
	for c := range lists {
		rng := randx.New(randx.DeriveSeed(seed, 0x5e7, uint64(int64(idx)), uint64(c)))
		kinds := make([]servedKind, 0, servedYields+servedRepeats+servedOpts)
		for i := 0; i < servedYields; i++ {
			kinds = append(kinds, kindYield)
		}
		for i := 0; i < servedRepeats; i++ {
			kinds = append(kinds, kindRepeat)
		}
		for i := 0; i < servedOpts; i++ {
			kinds = append(kinds, kindOptimize)
		}
		rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		for _, k := range kinds {
			r := servedReq{kind: k}
			switch k {
			case kindYield:
				x := make([]float64, len(w.x0))
				for i := range x {
					x[i] = w.x0[i] + (2*rng.Float64()-1)*servedSpread*(hi[i]-lo[i])
				}
				r.yield = service.YieldRequest{
					Scenario: servedYieldScenario + suffix,
					X:        problem.Clamp(w.yieldP, x),
					N:        servedYieldSamples,
					Seed:     service.Seed(rng.Uint64()),
					Sampler:  "pmc",
				}
				fresh = append(fresh, r.yield)
			case kindOptimize:
				r.opt = service.OptimizeRequest{
					Scenario: servedOptScenario + suffix,
					MaxGens:  servedOptGens,
					MaxSims:  servedOptMaxSims,
					Seed:     service.Seed(rng.Uint64()),
				}
			}
			lists[c] = append(lists[c], r)
		}
	}
	// Repeats copy a fresh yield request of either client, drawn from a
	// stream of their own so the fresh requests above do not depend on it.
	rng := randx.New(randx.DeriveSeed(seed, 0x4e9, uint64(int64(idx))))
	for c := range lists {
		for i := range lists[c] {
			if lists[c][i].kind == kindRepeat {
				lists[c][i].yield = fresh[rng.Intn(len(fresh))]
			}
		}
	}
	return lists
}

func (w *servedWL) round(o roundOpts) (roundResult, error) {
	lists := w.requests(w.seed, o.idx, o.tr != nil)
	servedTracer.Store(o.tr)
	defer servedTracer.Store(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results := make([][]jobResult, len(lists))
	errs := make([]error, len(lists))
	before := w.srv.Sims()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, r := range lists[c] {
				jr, err := w.send(ctx, w.clients[c], r, o.tr)
				if err != nil {
					errs[c] = err
					return
				}
				results[c] = append(results[c], jr)
			}
		}(c)
	}
	wg.Wait()
	rr := roundResult{wall: time.Since(start), sims: w.srv.Sims() - before}
	if err := errors.Join(errs...); err != nil {
		return rr, err
	}
	// Every answer to one yield request — computed, cached or coalesced —
	// must carry the computing job's bits.
	byKey := map[string]string{}
	for c := range lists {
		for i, r := range lists[c] {
			jr := &results[c][i]
			if r.kind == kindOptimize {
				continue
			}
			k := yieldKey(r.yield)
			if d, ok := byKey[k]; ok && d != jr.digest {
				warnf("served yield %s answered with different bits: %s vs %s", k, d, jr.digest)
				jr.failed = true
			}
			byKey[k] = jr.digest
		}
		rr.jobs = append(rr.jobs, results[c]...)
	}
	// One served yield per round is recomputed locally by verify.
	for i, r := range lists[0] {
		if r.kind == kindYield {
			bits, _ := strconv.ParseUint(results[0][i].digest, 16, 64)
			w.checks = append(w.checks, servedCheck{x: r.yield.X, n: r.yield.N, seed: *r.yield.Seed, bits: bits})
			break
		}
	}
	return rr, nil
}

func yieldKey(r service.YieldRequest) string {
	return fmt.Sprintf("%v/%d/%d", r.X, r.N, *r.Seed)
}

// send issues one request and checks its answer.
func (w *servedWL) send(ctx context.Context, c *service.Client, r servedReq, tr *tracer) (jobResult, error) {
	var id int32
	if tr != nil {
		id = tr.begin(layerService, 0)
	}
	t0 := time.Now()
	var st *service.Status
	var err error
	if r.kind == kindOptimize {
		st, err = c.Optimize(ctx, r.opt)
	} else {
		st, err = c.Yield(ctx, r.yield)
	}
	jr := jobResult{latency: time.Since(t0)}
	if tr != nil {
		tr.end(id)
	}
	if err != nil {
		return jr, err
	}
	jr.hit = st.Cached
	switch {
	case r.kind == kindOptimize && st.Optimize != nil:
		res := st.Optimize
		jr.digest = fmt.Sprintf("%x/%d", math.Float64bits(res.BestYield), res.TotalSims)
		if problem.CheckDesign(w.optP, res.BestX) != nil || res.TotalSims <= 0 {
			warnf("served optimize seed %d: BestX outside bounds or no simulations", res.Seed)
			jr.failed = true
		}
	case r.kind != kindOptimize && st.Yield != nil:
		jr.digest = fmt.Sprintf("%x", math.Float64bits(st.Yield.Yield))
	default:
		warnf("served job %s finished %s without a result", st.ID, st.State)
		jr.failed = true
	}
	return jr, nil
}

// verify recomputes one served yield per round with yieldsim.ReferenceCtx
// on the same (scenario, x, n, seed); the bits must match.
func (w *servedWL) verify() (int, int, error) {
	failed := 0
	for _, c := range w.checks {
		y, _, err := yieldsim.ReferenceCtx(nil, w.yieldP, c.x, c.n, c.seed, yieldsim.RefOptions{Workers: computeWorkers})
		if err != nil {
			return len(w.checks), failed, err
		}
		if math.Float64bits(y) != c.bits {
			warnf("served yield %x differs from the local estimate %x", c.bits, math.Float64bits(y))
			failed++
		}
	}
	return len(w.checks), failed, nil
}

func (w *servedWL) lockstep() (float64, error) {
	return lockstepRatio(w.yieldP, w.scalar, w.x0, yieldsim.ChunkSize, w.seed)
}

func (w *servedWL) registry() *obs.Registry { return w.reg }

func (w *servedWL) close() {
	w.hs.Close()
	<-w.serve
	w.srv.Close()
	w.httpc.CloseIdleConnections()
}
