package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"github.com/eda-go/moheco/internal/yieldsim"
)

// computeWorkers is the engine's worker count (core.Options.Workers,
// RefOptions.Workers, the server's Workers) in every round, warm-up and
// check: one compute goroutine. On a few vCPUs of a shared host, rounds on
// every vCPU at once wait for the slowest one and spread across runs about
// three times as wide (yield-ac on two vCPUs, five seeds: 1.64–2.09 s per
// round on two workers, 3.07–3.33 s on one); the spare vCPU takes the
// runtime, the garbage collector and the HTTP goroutines. engine.scaling
// measures the multi-worker path in the traced run.
const computeWorkers = 1

type runConfig struct {
	def    workloadDef
	seed   uint64
	budget time.Duration
	nproc  int
	spans  string
}

// setupTime returns setup_s: the median, over setupReps child processes
// that only set the workload up, of the time from starting the child until
// it reports the workload ready. Each set-up starts from a fresh process, so
// runtime and package initialisation and first-touch costs are in it, as
// they are for a user; the untimed warm-up pass is in it too.
func setupTime(cfg runConfig) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(exe, "-workload", cfg.def.name, "-seed", strconv.FormatUint(cfg.seed, 10), "-setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		if rerr != nil || line != setupReady+"\n" {
			return 0, fmt.Errorf("set-up process did not report ready (%q)", line)
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// setupOnly is the set-up process of setupTime: it sets the workload up,
// reports it ready on standard output, and closes it.
func setupOnly(cfg runConfig) error {
	w, err := cfg.def.setup(cfg.seed, cfg.nproc)
	if err != nil {
		return err
	}
	fmt.Println(setupReady)
	w.close()
	return nil
}

// setupReady is the line a set-up process prints when its workload is ready.
const setupReady = "ready"

// verifyOutputs runs w's output checks that need reference computations,
// if it has any, into res.
func verifyOutputs(res *result, w workload) error {
	v, ok := w.(verifier)
	if !ok {
		return nil
	}
	a, f, err := v.verify()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	res.Attempted += a
	res.Failed += f
	return nil
}

// tally counts a round's operations into res.
func tally(res *result, rr roundResult) {
	for _, j := range rr.jobs {
		res.Attempted++
		if j.failed {
			res.Failed++
		}
	}
}

// runTimed measures the end-to-end metrics: rounds of the fixed job list
// until the time budget is spent, medians over rounds. The latency
// percentiles too are taken per round and their median reported: pooled
// over the run, p90 follows the rounds a burst of load from other tenants
// of the host slowed (yield-ac, three seeds: pooled p90 1.15–1.34 times
// p50, per-round median 1.08–1.13).
func runTimed(cfg runConfig) (result, error) {
	setupS, err := setupTime(cfg)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	w, err := cfg.def.setup(cfg.seed, cfg.nproc)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer w.close()
	var res result
	var walls, rates, sims, p50, p90, rss, cpu []float64
	ops := 0
	rssPeak := startPeakSampler(rssBytes)
	start := time.Now()
	for idx := 0; ; idx++ {
		// Each round starts from a collected heap returned to the OS, so its
		// peak RSS is its own rather than whatever an earlier round left
		// resident.
		debug.FreeOSMemory()
		rssPeak.take()
		cpu0 := processCPU()
		rr, err := w.round(roundOpts{idx: idx, workers: computeWorkers})
		cpu = append(cpu, processCPU()-cpu0)
		tally(&res, rr)
		if err != nil {
			// An operation that errors ends the measurement; it counts
			// as failed and the result reports the run incorrect.
			warnf("round %d: %v", idx, err)
			res.Attempted++
			res.Failed++
			break
		}
		walls = append(walls, rr.wall.Seconds())
		rates = append(rates, float64(rr.sims)/rr.wall.Seconds())
		sims = append(sims, float64(rr.sims))
		var lat []float64
		for _, j := range rr.jobs {
			lat = append(lat, j.latency.Seconds())
		}
		ops += len(lat)
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		rss = append(rss, float64(rssPeak.take())/(1<<20))
		if time.Since(start)+time.Duration(median(walls)*float64(time.Second)) > cfg.budget {
			break
		}
	}
	rssPeak.done()
	if len(walls) == 0 {
		return res, fmt.Errorf("no round completed")
	}
	if err := verifyOutputs(&res, w); err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d rounds, %d operations; round wall times %.3f s\n", cfg.def.name, len(walls), ops, walls)
	res.Metrics = map[string]metric{
		"setup_s":     {setupS, "s"},
		"wall_s":      {median(walls), "s"},
		"sims_per_s":  {median(rates), "1/s"},
		"sims":        {median(sims), "count"},
		"job_p50_s":   {median(p50), "s"},
		"job_p90_s":   {median(p90), "s"},
		"peak_rss_mb": {median(rss), "MB"},
		"cpu_s":       {median(cpu), "s"},
	}
	return res, nil
}

// runTraced measures the per-layer metrics. It alternates untraced and
// traced rounds of the same job list for half the budget — the traced
// rounds record spans and counter deltas, the pairs give the tracing
// overhead and the fidelity check — then runs the paired in-run ratios
// (worker scaling, lockstep speed-up). The runtime metrics (heap peak,
// allocations, GC time) come from the untraced rounds, so that they do not
// count the tracer's own memory.
func runTraced(cfg runConfig) (result, error) {
	w, err := cfg.def.setup(cfg.seed, cfg.nproc)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer w.close()
	reg := registryOf(w)
	var (
		res                       result
		untracedWalls, tracedWall []float64
		hitLat, heapPeaks         []float64
		missLat                   float64
		misses                    int
		acc, accU                 = counters{}, counters{}
		lo                        layerObs
		self                      = map[string]time.Duration{}
		evalCalls, evalSamples    int
		evalBusy                  time.Duration
		chunkTimes                []float64
		spans                     []span
	)
	hp := startPeakSampler(heapBytes)
	start := time.Now()
	for idx := 0; idx < 2 || time.Since(start) < cfg.budget/2; idx++ {
		// The previous traced round's spans and bookkeeping are garbage
		// by now; collect them so the untraced round's heap peak is the
		// program's own.
		spans = nil
		runtime.GC()
		hp.take()
		c0 := readCounters(reg)
		u, err := w.round(roundOpts{idx: idx, workers: computeWorkers})
		c1 := readCounters(reg)
		heapPeaks = append(heapPeaks, float64(hp.take())/(1<<20))
		tally(&res, u)
		if err != nil {
			hp.done()
			return res, fmt.Errorf("untraced round %d: %w", idx, err)
		}
		tr := newTracer()
		root := tr.begin(layerRound, -1)
		t, err := w.round(roundOpts{idx: idx, tr: tr, workers: computeWorkers})
		tr.end(root)
		c2 := readCounters(reg)
		tally(&res, t)
		if err != nil {
			hp.done()
			return res, fmt.Errorf("traced round %d: %w", idx, err)
		}
		du, dt := c1.sub(c0), c2.sub(c1)
		res.Attempted++
		if !fidelity(u, t, du, dt) {
			res.Failed++
		}
		untracedWalls = append(untracedWalls, u.wall.Seconds())
		tracedWall = append(tracedWall, t.wall.Seconds())
		for _, j := range u.jobs {
			if j.hit {
				hitLat = append(hitLat, j.latency.Seconds())
			}
		}
		for _, j := range t.jobs {
			if !j.hit {
				missLat += j.latency.Seconds()
				misses++
			}
		}
		dt.addTo(acc)
		du.addTo(accU)
		lo.merge(t.layer)
		spans = tr.snapshot()
		for k, v := range selfTimes(spans) {
			self[k] += v
		}
		for _, s := range spans {
			if s.Layer != layerCircuits {
				continue
			}
			evalCalls++
			evalSamples += s.Samples
			evalBusy += s.dur()
			if s.Samples == yieldsim.ChunkSize {
				chunkTimes = append(chunkTimes, s.dur().Seconds())
			}
		}
	}
	hp.done()
	rounds := float64(len(tracedWall))

	scaling, err := workerScaling(cfg, w)
	if err != nil {
		return res, err
	}
	speedup := 0.0
	if l, ok := w.(lockstepper); ok {
		res.Attempted++
		if speedup, err = l.lockstep(); err != nil {
			warnf("lockstep: %v", err)
			res.Failed++
		}
	}
	if err := verifyOutputs(&res, w); err != nil {
		return res, err
	}
	if err := writeSpans(cfg.spans, spans); err != nil {
		warnf("spans: %v", err)
	}

	samples := float64(evalSamples)
	queueS := ratio(acc["service_job_queue_seconds_sum"], acc["service_job_queue_seconds_count"])
	runS := ratio(acc["service_job_run_seconds_sum"], acc["service_job_run_seconds_count"])
	overhead := 0.0
	if acc["service_job_run_seconds_count"] > 0 {
		overhead = ratio(missLat, float64(misses)) - queueS - runS
	}
	submitted := acc["service_cache_hits_total"] + acc["service_cache_coalesced_total"] + acc["service_cache_misses_total"]
	tasks := acc["engine_tasks_total"]
	v := map[string]float64{
		"trace.untraced_wall_s":           median(untracedWalls),
		"trace.traced_wall_s":             median(tracedWall),
		"trace.overhead":                  median(tracedWall)/median(untracedWalls) - 1,
		"core.self_s":                     self[layerCore].Seconds() / rounds,
		"core.generations":                float64(lo.generations) / rounds,
		"core.gen_p50_s":                  median(lo.genSeconds),
		"core.nm_triggers":                float64(lo.nmTriggers) / rounds,
		"ocba.sims_per_gen":               mean(lo.genSims),
		"ocba.top_decile_sim_share":       mean(lo.topDecileShare),
		"yieldsim.as_sim_ratio":           ratio(float64(lo.simCounts), float64(lo.sampleCounts)),
		"yieldsim.self_s":                 self[layerYieldsim].Seconds() / rounds,
		"yieldsim.chunks":                 acc["yieldsim_chunk_seconds_count"] / rounds,
		"yieldsim.chunk_p50_s":            median(chunkTimes),
		"engine.tasks":                    tasks / rounds,
		"engine.samples_per_task":         ratio(samples, tasks),
		"engine.busy_frac":                ratio(acc["engine_busy_ns_total"]/1e9, sum(tracedWall)*computeWorkers),
		"engine.scaling":                  scaling,
		"circuits.calls":                  float64(evalCalls) / rounds,
		"circuits.samples_per_call":       ratio(samples, float64(evalCalls)),
		"circuits.busy_s":                 evalBusy.Seconds() / rounds,
		"circuits.us_per_sample":          ratio(evalBusy.Seconds()*1e6, samples),
		"circuits.allocs_per_sample":      ratio(accU["go_mallocs"], samples),
		"circuits.bytes_per_sample":       ratio(accU["go_alloc_bytes"], samples),
		"spice.newton_per_sample":         ratio(acc["spice_newton_iterations_total"], samples),
		"spice.factorizations_per_sample": ratio(acc["spice_factorizations_total"], samples),
		"spice.lane_occupancy":            ratio(acc["spice_lockstep_lanes_sum"], acc["spice_lockstep_lanes_count"]),
		"spice.lockstep_speedup":          speedup,
		"service.queue_s":                 queueS,
		"service.run_s":                   runS,
		"service.overhead_s":              overhead,
		"service.hit_p50_s":               median(hitLat),
		"service.cache_hit_ratio":         ratio(acc["service_cache_hits_total"], submitted),
		"service.coalesced":               acc["service_cache_coalesced_total"] / rounds,
		"runtime.gc_cpu_frac":             ratio(accU["go_gc_cpu_seconds"], accU["go_cpu_seconds"]),
		"runtime.heap_peak_mb":            median(heapPeaks),
	}
	res.Metrics = map[string]metric{}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{v[d.name], d.unit}
	}
	fmt.Fprintf(os.Stderr, "%s: %d traced rounds, %d cache-answered requests in the untraced rounds, spans of the last traced round in %s\n",
		cfg.def.name, len(tracedWall), len(hitLat), cfg.spans)
	return res, nil
}

// fidelity reports whether a traced round reproduced its untraced twin:
// the same result bits, and the same spice and engine counts.
func fidelity(u, t roundResult, du, dt counters) bool {
	ok := u.digests() == t.digests() && u.sims == t.sims
	for _, k := range exactSeries {
		if du[k] != dt[k] {
			warnf("traced round changed %s: %g untraced, %g traced", k, du[k], dt[k])
			ok = false
		}
	}
	if !ok {
		warnf("traced round does not reproduce the untraced round")
	}
	return ok
}

// scalingJobs is the job count of the worker-scaling rounds: enough to
// cover each scenario of a workload once.
const scalingJobs = 2

// workerScaling returns the wall time of the first jobs at one worker over
// the time at nproc workers, median of three alternating pairs; 0 for the
// workload whose worker count is fixed at set-up.
func workerScaling(cfg runConfig, w workload) (float64, error) {
	if !cfg.def.scaling {
		return 0, nil
	}
	var one, all []float64
	for pair := 0; pair < 3; pair++ {
		for _, workers := range []int{1, cfg.nproc} {
			rr, err := w.round(roundOpts{workers: workers, jobs: scalingJobs})
			if err != nil {
				return 0, fmt.Errorf("scaling round: %w", err)
			}
			if workers == 1 {
				one = append(one, rr.wall.Seconds())
			} else {
				all = append(all, rr.wall.Seconds())
			}
		}
	}
	return median(one) / median(all), nil
}

// processCPU returns the CPU time the process has used, user plus system,
// in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
