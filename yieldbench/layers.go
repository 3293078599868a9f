package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/eda-go/moheco/internal/obs"
)

// counters is a reading of what the program already exports, keyed by
// series name: the process-wide obs.Default() counters and histograms
// (histograms as name+"_count" and name+"_sum"), the served workload's
// private service registry, and the Go runtime's allocation and CPU
// accounting (the "go_" keys).
type counters map[string]float64

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readCounters takes a reading; svc is the served workload's registry (nil
// elsewhere).
func readCounters(svc *obs.Registry) counters {
	c := counters{}
	for _, r := range []*obs.Registry{obs.Default(), svc} {
		s := r.Snapshot()
		for k, v := range s.Counters {
			c[k] += float64(v)
		}
		for k, h := range s.Histograms {
			c[k+"_count"] += float64(h.Count)
			c[k+"_sum"] += h.Sum
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["go_mallocs"] = float64(ms.Mallocs)
	c["go_alloc_bytes"] = float64(ms.TotalAlloc)
	metrics.Read(cpuSamples)
	c["go_gc_cpu_seconds"] = cpuSamples[0].Value.Float64()
	c["go_cpu_seconds"] = cpuSamples[1].Value.Float64()
	return c
}

// sub returns the change from b to c.
func (c counters) sub(b counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - b[k]
	}
	return d
}

// addTo accumulates c into acc.
func (c counters) addTo(acc counters) {
	for k, v := range c {
		acc[k] += v
	}
}

// exactSeries are the deltas a traced round must reproduce exactly against
// an untraced round of the same job list: equal counts prove the evaluator
// wrapper kept the batched and lockstep path.
var exactSeries = []string{
	"spice_factorizations_total",
	"spice_newton_iterations_total",
	"spice_lockstep_lanes_count",
	"spice_lockstep_lanes_sum",
	"engine_tasks_total",
}

// peakSampler tracks the maximum of a reading sampled every 5 ms.
type peakSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func startPeakSampler(read func() uint64) *peakSampler {
	p := &peakSampler{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			v := read()
			p.mu.Lock()
			p.peak = max(p.peak, v)
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// take returns the peak since the previous take and starts a new one.
func (p *peakSampler) take() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.peak
	p.peak = 0
	return v
}

// done stops the sampler and returns the peak since the last take.
func (p *peakSampler) done() uint64 {
	close(p.stop)
	p.wg.Wait()
	return p.take()
}

// heapBytes reads the bytes held by live and unswept heap objects.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rssBytes reads the process's resident set size from /proc/self/statm (0
// when it cannot be read).
func rssBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
