package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eda-go/moheco/internal/problem"
)

// Span layer names. Spans are recorded only from this package, around the
// calls it makes into each layer; nothing inside the program is traced.
const (
	layerRound    = "round"    // one pass over the workload's job list
	layerCore     = "core"     // one core.Optimize call
	layerYieldsim = "yieldsim" // one yieldsim.ReferenceCtx call
	layerService  = "service"  // one service.Client request, submit to terminal status
	layerCircuits = "circuits" // one Evaluate or EvaluateBatch call on a scenario problem
)

// span is one timed interval. Parent is the index of the span that caused
// it (-1 for a root); Samples counts the variation samples an evaluator
// call simulated.
type span struct {
	Layer   string `json:"layer"`
	Parent  int32  `json:"parent"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Samples int    `json:"samples,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of one traced round in memory. Evaluator spans
// take the span stored in cur as their parent: the workloads run one
// top-level call (an Optimize or a ReferenceCtx) at a time, so every
// evaluator call in flight belongs to it.
type tracer struct {
	epoch time.Time
	cur   atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.cur.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(layer string, parent int32) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: layer, Parent: parent, Start: start})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// enter opens a top-level call span under parent and makes it the parent
// of the evaluator spans that follow; leave closes it.
func (t *tracer) enter(layer string, parent int32) int32 {
	id := t.begin(layer, parent)
	t.cur.Store(id)
	return id
}

func (t *tracer) leave(id int32) {
	t.cur.Store(-1)
	t.end(id)
}

func (t *tracer) evaluator(start int64, samples int) {
	end := t.now()
	parent := t.cur.Load()
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: layerCircuits, Parent: parent, Start: start, End: end, Samples: samples})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans stores spans at path, for reading a round's timeline after
// the benchmark ends.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of its interval that the union of its
// child spans covers. Children of one parent may overlap (evaluator calls
// run on several workers at once), hence the union.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Layer] += s.dur() - covered(s, children[int32(i)])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// tracedProblem records an evaluator span around every Evaluate call.
type tracedProblem struct {
	problem.Problem
	t *tracer
}

func (p tracedProblem) Evaluate(x, xi []float64) ([]float64, error) {
	start := p.t.now()
	perf, err := p.Problem.Evaluate(x, xi)
	p.t.evaluator(start, 1)
	return perf, err
}

// tracedBatch also forwards EvaluateBatch, so a batch-capable problem keeps
// its batched and lockstep path under the tracer.
type tracedBatch struct {
	tracedProblem
	b problem.BatchEvaluator
}

func (p tracedBatch) EvaluateBatch(x []float64, xis [][]float64) ([][]float64, []error) {
	start := p.t.now()
	perfs, errs := p.b.EvaluateBatch(x, xis)
	p.t.evaluator(start, len(xis))
	return perfs, errs
}

// traced wraps p so that its evaluator calls are recorded by t; a nil t
// returns p unchanged.
func traced(p problem.Problem, t *tracer) problem.Problem {
	if t == nil {
		return p
	}
	tp := tracedProblem{Problem: p, t: t}
	if b, ok := p.(problem.BatchEvaluator); ok {
		return tracedBatch{tracedProblem: tp, b: b}
	}
	return tp
}
