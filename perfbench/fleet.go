package main

import (
	"fmt"
	"runtime"
	"time"

	"taskbench/internal/cluster"
	"taskbench/internal/core"
	"taskbench/internal/wire"
)

const (
	// fleetRanks is both the worker count and every job's rank count.
	fleetRanks = 2
	// configCapacity is the coordinator's default MaxConfigs.
	configCapacity = 32
	// churnShapes is how many seed-distinct shapes cluster-churn
	// cycles through: more than the cache holds, so every job misses.
	churnShapes = 40
)

// fleetShape is every cluster job's geometry: a small empty-kernel
// stencil whose run is short next to the control path.
var fleetShape = shape{steps: 20, width: 4, output: 64}

func runClusterWarm(cfg config, tr *tracer) (*report, error) {
	return runFleet(cfg, tr, []wire.AppSpec{specOf(fleetShape, cfg.seed, fleetRanks)})
}

func runClusterChurn(cfg config, tr *tracer) (*report, error) {
	specs := make([]wire.AppSpec, churnShapes)
	for k := range specs {
		// Only the graph seed differs, so every shape has the same run
		// cost but its own shape key.
		specs[k] = specOf(fleetShape, cfg.seed*churnShapes+uint64(k), fleetRanks)
	}
	return runFleet(cfg, tr, specs)
}

// fleet is an in-process coordinator, its workers and one client.
type fleet struct {
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	exited  chan error
	cli     *cluster.Client
}

func startFleet() (*fleet, error) {
	coord, err := cluster.Start(cluster.Options{})
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: coord, exited: make(chan error, fleetRanks)}
	for k := 0; k < fleetRanks; k++ {
		w := cluster.NewWorker(cluster.WorkerOptions{Coordinator: coord.Addr(), Name: fmt.Sprintf("w%d", k)})
		f.workers = append(f.workers, w)
		go func() { f.exited <- w.Run() }()
	}
	if _, err := coord.WaitWorkers(fleetRanks, 30*time.Second); err != nil {
		f.stop()
		return nil, err
	}
	if f.cli, err = cluster.Dial(coord.Addr()); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop closes the client, the workers and the coordinator, and waits
// for every worker's Run to return.
func (f *fleet) stop() {
	if f.cli != nil {
		f.cli.Close()
	}
	for _, w := range f.workers {
		w.Close()
	}
	for range f.workers {
		<-f.exited
	}
	f.coord.Close()
}

// fleetRun is one fleet workload in progress: jobs cycle round-robin
// over specs.
type fleetRun struct {
	f       *fleet
	specs   []wire.AppSpec
	next    int
	lastJob uint64
	rep     *report
	tr      *tracer
}

func runFleet(cfg config, tr *tracer, specs []wire.AppSpec) (*report, error) {
	// The fleet runs on one P. A job crosses about eight loopback
	// socket handoffs (client, coordinator, both workers and back);
	// with two Ps each one may have to wake the other vCPU, and on a
	// shared 2-vCPU guest that wake-up swung cluster-warm's p50 between
	// 0.19 and 0.48 ms with the host's load. On one P the job path is
	// CPU work, and the two ranks take turns on it.
	runtime.GOMAXPROCS(1)
	root := tr.begin("run", -1, 0)
	setup := tr.begin("setup", root, 0)
	f, err := startFleet()
	if err != nil {
		return nil, err
	}
	defer f.stop()
	app, err := specs[0].ToApp()
	if err != nil {
		return nil, err
	}
	r := &fleetRun{f: f, specs: specs, tr: tr,
		rep: &report{workers: fleetRanks, tasks: app.TotalTasks()}}
	for _, spec := range specs {
		if err := checkSpec(spec); err != nil {
			return nil, err
		}
	}
	// The first job provisions its configuration: set-up ends when the
	// fleet is ready to run the first timed job.
	if _, err := r.loop(0, 1, 0, setup); err != nil {
		return nil, err
	}
	tr.end(setup, 1)
	r.rep.setup = time.Since(processStart)

	if !cfg.trace {
		if r.rep.empty, err = r.loop(cfg.budget(0.55), minJobs, 0, -1); err != nil {
			return nil, err
		}
		if r.rep.busy, err = r.loop(cfg.budget(0.45), 1, grain50, -1); err != nil {
			return nil, err
		}
		r.checkFleet()
		return r.rep, nil
	}

	before := readMem()
	empty, traced, mem, err := interleave(cfg.budget(0.5), root, func(d time.Duration, parent int32) (samples, error) {
		return r.loop(d, 1, 0, parent)
	})
	if err != nil {
		return nil, err
	}
	r.rep.empty = empty
	if r.rep.busy, err = r.loop(cfg.budget(0.2), 1, grain50, root); err != nil {
		return nil, err
	}
	all := before.to(readMem())
	r.checkFleet()
	churn := len(specs) > 1
	layers, err := probeLayers(probeInputs{app: app, local: true, msgs: jobMessages(specs[0], churn)},
		cfg.budget(0.3), tr, root)
	if err != nil {
		return nil, err
	}
	tr.end(root, 1)
	r.rep.extra = map[string]float64{
		"job_p99_ms": quantile(millis(r.rep.empty.latency), 0.99),
		"jobs_per_s": r.rep.empty.rate(),
	}
	addJobLayers(layers, r.rep, traced, mem, all, countsOf(f.coord.Stats()))
	r.rep.layers = layers
	return r.rep, nil
}

// checkSpec checks a job shape's task and dependency counts against
// the stencil closed form before any job of it is sent.
func checkSpec(spec wire.AppSpec) error {
	app, err := spec.ToApp()
	if err != nil {
		return err
	}
	st := core.StatsFor(app)
	st.Workers = fleetRanks
	return checkCounts(st, spec.Graphs[0].Steps, spec.Graphs[0].Width, fleetRanks)
}

// checkFleet compares the coordinator's counters with the jobs the
// client sent; a mismatch is a correctness failure of the run.
func (r *fleetRun) checkFleet() {
	if err := checkFleet(r.f.coord.Stats(), int(r.rep.attempted), len(r.specs) > 1, configCapacity); err != nil {
		r.rep.problem("%v", err)
	}
}

// loop submits jobs one at a time (a closed loop with one job
// outstanding) for d and at least n times, with a busy-wait kernel of
// grain or an empty kernel for grain 0, and returns the jobs that
// succeeded. With a parent span, every job gets a span.
func (r *fleetRun) loop(d time.Duration, n int, grain time.Duration, parent int32) (samples, error) {
	var out samples
	start := time.Now()
	for k := 0; k < n || time.Since(start) < d; k++ {
		spec := r.specs[r.next%len(r.specs)]
		r.next++
		if grain > 0 {
			spec.Graphs = []wire.GraphSpec{spec.Graphs[0]}
			spec.Graphs[0].Kernel = "busy_wait"
			spec.Graphs[0].WaitNanos = int64(grain)
		}
		id := r.tr.begin("cluster.Client.Submit", parent, 0)
		t0 := time.Now()
		res, err := r.f.cli.Submit(spec)
		took := time.Since(t0)
		r.tr.end(id, 1)
		if id >= 0 {
			r.tr.spans[id].Job = res.Job
		}
		r.rep.attempted++
		if err != nil {
			// The control connection is gone: no later job can run.
			return out, fmt.Errorf("job %d: %w", r.rep.attempted, err)
		}
		if err := checkJob(res, took, fleetRanks, r.lastJob); err != nil {
			if res.Err != nil {
				r.rep.failed++
			}
			r.rep.problem("%v", err)
			continue
		}
		r.lastJob = res.Job
		if grain > 0 {
			if err := checkGrain(res.Elapsed, spec.Graphs[0].Steps, fleetRanks, r.rep.tasks, grain); err != nil {
				r.rep.problem("job %d: %v", res.Job, err)
			}
		}
		out.latency = append(out.latency, took)
		out.elapsed = append(out.elapsed, res.Elapsed)
	}
	out.wall = time.Since(start)
	return out, nil
}
