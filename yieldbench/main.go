// Command yieldbench is the repository's benchmark: it runs one named
// workload of the yield-optimization stack from a single process, checks
// the outputs, and prints every end-to-end metric by name with its unit —
// or, with -trace 1, the per-layer metrics of a traced run. See README.md.
//
// Usage, from the repository root:
//
//	bash yieldbench/run.sh --workload yield-ac --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	_ "github.com/eda-go/moheco/internal/circuits" // registers the scenarios
)

// setupReps is how many set-up processes a run times; setup_s is the
// median.
const setupReps = 5

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system would see, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sims_per_s", "1/s"},
	{"sims", "count"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_s", "s"},
}

// perLayer are the traced run's metrics; see README.md for which
// end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{"trace.untraced_wall_s", "s"},
	{"trace.traced_wall_s", "s"},
	{"trace.overhead", "ratio"},
	{"core.self_s", "s"},
	{"core.generations", "count"},
	{"core.gen_p50_s", "s"},
	{"core.nm_triggers", "count"},
	{"ocba.sims_per_gen", "count"},
	{"ocba.top_decile_sim_share", "ratio"},
	{"yieldsim.as_sim_ratio", "ratio"},
	{"yieldsim.self_s", "s"},
	{"yieldsim.chunks", "count"},
	{"yieldsim.chunk_p50_s", "s"},
	{"engine.tasks", "count"},
	{"engine.samples_per_task", "count"},
	{"engine.busy_frac", "ratio"},
	{"engine.scaling", "ratio"},
	{"circuits.calls", "count"},
	{"circuits.samples_per_call", "count"},
	{"circuits.busy_s", "s"},
	{"circuits.us_per_sample", "us"},
	{"circuits.allocs_per_sample", "count"},
	{"circuits.bytes_per_sample", "B"},
	{"spice.newton_per_sample", "count"},
	{"spice.factorizations_per_sample", "count"},
	{"spice.lane_occupancy", "count"},
	{"spice.lockstep_speedup", "ratio"},
	{"service.queue_s", "s"},
	{"service.run_s", "s"},
	{"service.overhead_s", "s"},
	{"service.hit_p50_s", "s"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.heap_peak_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "yieldbench: "+format+"\n", args...)
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run (optimize-paper, yield-ac, served-mix)")
	seed := flag.Uint64("seed", 1, "workload seed; the program sees only inputs generated from it")
	secs := flag.Int("seconds", 35, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	only := flag.String("metrics", "", "comma-separated metric names to print (default: all of the run's metrics)")
	spans := flag.String("spans", "", "file for the last traced round's spans (default .bench_build/yieldbench-spans-WORKLOAD.json)")
	mkref := flag.String("mkref", "", "recompute the committed reference yields into this file and exit")
	setupOnlyFlag := flag.Bool("setup-only", false, "set the workload up, print \""+setupReady+"\" and exit (the set-up processes that time setup_s)")
	flag.Parse()
	if flag.NArg() > 0 {
		warnf("unexpected arguments %q", flag.Args())
		return 2
	}
	if *mkref != "" {
		if err := makeReferences(*mkref); err != nil {
			warnf("%v", err)
			return 1
		}
		return 0
	}
	def, err := lookupWorkload(*workload)
	if err != nil {
		warnf("%v", err)
		return 2
	}
	cfg := runConfig{def: def, seed: *seed, nproc: runtime.NumCPU()}
	if *setupOnlyFlag {
		if err := setupOnly(cfg); err != nil {
			warnf("%s: %v", def.name, err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		warnf("-trace must be 0 or 1, not %d", *trace)
		return 2
	}
	if *secs < 1 {
		warnf("-seconds must be at least 1")
		return 2
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	selected, err := selectMetrics(defs, *only)
	if err != nil {
		warnf("%v", err)
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "yieldbench-spans-"+def.name+".json")
	}

	env := environment(def.name, *seed)
	b, _ := json.Marshal(env)
	fmt.Printf("env %s\n", b)

	cfg.budget = time.Duration(*secs) * time.Second
	cfg.spans = *spans
	var res result
	if *trace == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runTimed(cfg)
	}
	if err != nil {
		warnf("%s: %v", def.name, err)
		return 1
	}
	out := map[string]metric{}
	for _, d := range selected {
		m, ok := res.Metrics[d.name]
		if !ok {
			warnf("%s: metric %s was not measured", def.name, d.name)
			return 1
		}
		out[d.name] = m
		fmt.Fprintf(os.Stderr, "%-34s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	res.Metrics = out
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "error_rate %.6g (%d failed of %d attempted)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	b, err = json.Marshal(res)
	if err != nil {
		warnf("%v", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// selectMetrics returns the definitions named in the comma-separated list
// (all of defs when it is empty); an unknown name is an error.
func selectMetrics(defs []metricDef, list string) ([]metricDef, error) {
	if list == "" {
		return defs, nil
	}
	var out []metricDef
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, d := range defs {
			if d.name == name {
				out = append(out, d)
				found = true
			}
		}
		if !found {
			known := make([]string, len(defs))
			for i, d := range defs {
				known[i] = d.name
			}
			return nil, fmt.Errorf("unknown metric %q for this run (known: %s)", name, strings.Join(known, ", "))
		}
	}
	return out, nil
}

// environment is the stamp printed with every result.
func environment(workload string, seed uint64) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git when the benchmark runs in
// a git work tree, and returns "unknown" otherwise; the source digest then
// identifies the code.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return h
		}
	}
	return "unknown"
}

// sourceDigest is a SHA-256 over the Go sources and module files of the
// working directory's tree, in path order.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
