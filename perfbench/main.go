// Command perfbench is taskbench's end-to-end benchmark. It drives the
// program only through its public entry points (exec sessions, the
// tcp mesh, the wire codec and an in-process cluster fleet), checks
// every output against closed-form expectations, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload engine-stencil --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 the run records spans around every call into a layer,
// probes each layer on the workload's own inputs, writes the spans to
// .bench_out/ and reports the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// processStart is taken while the package initialises, so setup_s
// counts everything from the process start except the Go runtime's
// own start-up.
var processStart = time.Now()

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string
}

// budget returns share of the run's measuring time.
func (c config) budget(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// workload is one benchmark input set and the code that runs it.
type workload struct {
	name string
	why  string
	run  func(cfg config, tr *tracer) (*report, error)
}

var workloads = []workload{
	{"engine-stencil", "exec.Engine under the taskpool policy: core dependence queries, payload fill/validate and engine dispatch do all the work", runEngineStencil},
	{"rank-tcp", "exec.RankEngine over a 2-rank loopback tcp mesh with 4 KiB payloads: mesh batching and per-byte payload work dominate", runRankTCP},
	{"cluster-warm", "one client, a coordinator and 2 workers in process, one repeated shape: wire codec and the admit-dispatch-result path dominate", runClusterWarm},
	{"cluster-churn", "the same fleet cycling more shapes than the config cache holds: every job provisions and evicts", runClusterChurn},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 15, "measuring time of the run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", ".bench_out", "directory the traced run writes its spans to")
	flag.Parse()

	var w *workload
	for k := range workloads {
		if workloads[k].name == *name {
			w = &workloads[k]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(processStart)
	}
	rep, err := w.run(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, msg := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, msg)
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
	}
	if cfg.trace {
		res.Metrics = rep.layers
		if err := tr.write(cfg, w.name, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
	} else {
		res.Metrics = rep.endToEnd()
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report is what a workload run measured. A "job" is one complete
// execution of a task graph: one Session.Run on the engine workloads,
// one submitted cluster job on the fleet workloads.
type report struct {
	setup time.Duration
	// workers is the parallelism every task-granularity figure is
	// scaled by: engine workers or cluster ranks.
	workers int
	// tasks is the task count of one job.
	tasks int64

	// empty and busy hold the empty-kernel and grain50 jobs, measured
	// with tracing off.
	empty, busy samples

	attempted, failed int64
	problems          []string

	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
	// sweep holds a traced engine run's efficiency curve.
	sweep []sweepPoint
	// extra holds reference figures written to the trace file only.
	extra map[string]float64
}

func (r *report) problem(format string, args ...any) {
	// One bad job is enough to fail the run; cap the list so a
	// systematic fault does not flood standard error.
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// samples are the jobs of one loop.
type samples struct {
	latency []time.Duration // caller-visible time of each job
	elapsed []time.Duration // RunStats.Elapsed / JobResult.Elapsed
	wall    time.Duration   // wall time of the loop
}

// slotNs is the q-quantile over jobs of elapsed × workers ÷ tasks: the
// paper's task granularity, or the slot time of a busy-wait job.
func (s samples) slotNs(q float64, workers int, tasks int64) float64 {
	per := make([]float64, len(s.elapsed))
	for k, e := range s.elapsed {
		per[k] = float64(e.Nanoseconds()) * float64(workers) / float64(tasks)
	}
	return quantile(per, q)
}

// overheadNs is the median task granularity of the jobs.
func (s samples) overheadNs(workers int, tasks int64) float64 { return s.slotNs(0.5, workers, tasks) }

func (s samples) p50ms() float64 { return quantile(millis(s.latency), 0.50) }

// add appends o's jobs to s.
func (s *samples) add(o samples) {
	s.latency = append(s.latency, o.latency...)
	s.elapsed = append(s.elapsed, o.elapsed...)
	s.wall += o.wall
}

// rate is the loop's closed-loop throughput in jobs per second.
func (s samples) rate() float64 { return float64(len(s.latency)) / s.wall.Seconds() }

func (r *report) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":          {r.setup.Seconds(), "s"},
		"task_overhead_ns": {r.empty.overheadNs(r.workers, r.tasks), "ns"},
		// The lower quartile, not the median: on the fleet the per-job
		// slot time at 50 µs is bimodal on a 2-vCPU guest (p25 58–60 µs,
		// p75 82–100 µs), and the share of jobs in the slow mode follows
		// the CPU time the hypervisor steals, so the median jumps
		// between the modes from run to run.
		"slot50_us":    {r.busy.slotNs(0.25, r.workers, r.tasks) / 1e3, "us"},
		"job_p50_ms":   {r.empty.p50ms(), "ms"},
		"peak_rss_mib": {peakRSSMiB(), "MiB"},
	}
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for k, d := range ds {
		out[k] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMiB is the process's peak resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
