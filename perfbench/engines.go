package main

import (
	"fmt"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/kernels"
	tbruntime "taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
	_ "taskbench/internal/runtime/serial"
	_ "taskbench/internal/runtime/taskpool"
	_ "taskbench/internal/runtime/tcp"
	"taskbench/internal/wire"
)

// grain50 is the busy-wait task the slot50_us metric runs: the
// smallest grain the paper finds systems reliably support.
const grain50 = 50 * time.Microsecond

// minJobs keeps at least ten samples beyond the empty-kernel p99 that
// traced runs record for reference.
const minJobs = 1000

// shape is a stencil_1d geometry.
type shape struct{ steps, width, output int }

// stencilApp builds the workload's graph with an empty kernel. The
// seed reaches the program only as the graph's seed parameter.
func stencilApp(sh shape, seed uint64, workers int) (*core.App, error) {
	g, err := core.New(core.Params{
		Timesteps: sh.steps, MaxWidth: sh.width, Dependence: core.Stencil1D,
		OutputBytes: sh.output, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	app := core.NewApp(g)
	app.Workers = workers
	return app, nil
}

func specOf(sh shape, seed uint64, ranks int) wire.AppSpec {
	return wire.AppSpec{
		Workers: ranks,
		Graphs: []wire.GraphSpec{{
			Steps: sh.steps, Width: sh.width, Type: core.Stencil1D.String(),
			Output: sh.output, Seed: seed,
		}},
	}
}

// session is what both exec.Session and exec.RankSession offer.
type session interface {
	Run() (core.RunStats, error)
}

// engineWorkload describes one engine workload.
type engineWorkload struct {
	sh   shape
	open func(app *core.App) (session, func(), error)
}

func runEngineStencil(cfg config, tr *tracer) (*report, error) {
	return engineWorkload{
		// Width 2 = one column per worker; 2000 steps keeps an
		// empty-kernel job near a millisecond.
		sh: shape{steps: 2000, width: 2, output: 16},
		open: func(app *core.App) (session, func(), error) {
			policy, err := policyOf("taskpool")
			if err != nil {
				return nil, nil, err
			}
			return exec.NewSession(app, policy), func() {}, nil
		},
	}.run(cfg, tr)
}

func runRankTCP(cfg config, tr *tracer) (*report, error) {
	return engineWorkload{
		// Four columns per rank and 4 KiB payloads; 200 steps keeps a
		// job short enough for a thousand per run.
		sh: shape{steps: 200, width: 8, output: 4096},
		open: func(app *core.App) (session, func(), error) {
			rt, err := tbruntime.New("tcp")
			if err != nil {
				return nil, nil, err
			}
			rb, ok := rt.(tbruntime.RankBacked)
			if !ok {
				return nil, nil, fmt.Errorf("tcp backend is not rank-backed")
			}
			s, err := exec.NewRankSession(app, rb.RankPolicy())
			if err != nil {
				return nil, nil, err
			}
			return s, s.Close, nil
		},
	}.run(cfg, tr)
}

func policyOf(name string) (exec.Policy, error) {
	rt, err := tbruntime.New(name)
	if err != nil {
		return nil, err
	}
	pb, ok := rt.(tbruntime.PolicyBacked)
	if !ok {
		return nil, fmt.Errorf("%s backend is not policy-backed", name)
	}
	return pb.Policy(), nil
}

// engineRun is one engine workload in progress.
type engineRun struct {
	engineWorkload
	app  *core.App
	sess session
	rep  *report
	tr   *tracer
}

func (w engineWorkload) run(cfg config, tr *tracer) (*report, error) {
	const workers = 2
	root := tr.begin("run", -1, 0)
	setup := tr.begin("setup", root, 0)
	app, err := stencilApp(w.sh, cfg.seed, workers)
	if err != nil {
		return nil, err
	}
	sess, closeFn, err := w.open(app)
	if err != nil {
		return nil, err
	}
	defer closeFn()
	e := &engineRun{engineWorkload: w, app: app, sess: sess, tr: tr,
		rep: &report{workers: workers, tasks: app.TotalTasks()}}
	// Set-up ends after the first, cold job, as on the fleet
	// workloads, whose first job provisions the configuration.
	e.loop(0, 1, setup)
	tr.end(setup, 1)
	e.rep.setup = time.Since(processStart)

	// Warm-up: fill the payload pools and caches before timing.
	e.loop(0, 20, -1)

	if !cfg.trace {
		e.rep.empty = e.loop(cfg.budget(0.45), minJobs, -1)
		e.setKernel(grain50)
		e.rep.busy = e.loop(cfg.budget(0.55), 1, -1)
		return e.rep, nil
	}

	before := readMem()
	empty, traced, mem, _ := interleave(cfg.budget(0.4), root, func(d time.Duration, parent int32) (samples, error) {
		return e.loop(d, 1, parent), nil
	})
	e.rep.empty = empty
	e.setKernel(grain50)
	e.rep.busy = e.loop(cfg.budget(0.15), 1, root)
	e.setKernel(0)
	all := before.to(readMem())

	probeApp, err := stencilApp(w.sh, cfg.seed, workers)
	if err != nil {
		return nil, err
	}
	layers, err := probeLayers(probeInputs{app: probeApp, msgs: jobMessages(wire.FromApp(probeApp), false)},
		cfg.budget(0.2), tr, root)
	if err != nil {
		return nil, err
	}
	e.rep.sweep = e.sweep(cfg.budget(0.25), root)
	e.rep.extra = map[string]float64{
		"serial.task_ns": serialBaseline(probeApp),
		"job_p99_ms":     quantile(millis(e.rep.empty.latency), 0.99),
		"jobs_per_s":     e.rep.empty.rate(),
	}
	tr.end(root, 1)

	addJobLayers(layers, e.rep, traced, mem, all, configCounts{built: 1, reused: int(e.rep.attempted) - 1})
	e.rep.layers = layers
	return e.rep, nil
}

// setKernel switches every job after it to a busy-wait of grain, or
// to the empty kernel for grain 0. The plan and engine are reused:
// only the kernel configuration changes between runs.
func (e *engineRun) setKernel(grain time.Duration) {
	k := kernels.Config{Type: kernels.Empty}
	if grain > 0 {
		k = kernels.Config{Type: kernels.BusyWait, WaitDuration: grain}
	}
	e.app.Graphs[0].Kernel = k
}

// loop runs jobs for d and at least n times and returns the ones that
// succeeded. Busy-wait jobs are checked against their grain. With a
// parent span, every job gets a span.
func (e *engineRun) loop(d time.Duration, n int, parent int32) samples {
	g := e.app.Graphs[0]
	grain := time.Duration(0)
	if g.Kernel.Type == kernels.BusyWait {
		grain = g.Kernel.WaitDuration
	}
	var out samples
	start := time.Now()
	for k := 0; k < n || time.Since(start) < d; k++ {
		var id int32 = -1
		if parent >= 0 {
			id = e.tr.begin("exec.Session.Run", parent, uint64(e.rep.attempted+1))
		}
		t0 := time.Now()
		st, err := e.sess.Run()
		took := time.Since(t0)
		e.tr.end(id, st.Tasks)
		e.rep.attempted++
		if err != nil {
			e.rep.failed++
			e.rep.problem("job %d: %v", e.rep.attempted, err)
			continue
		}
		if err := checkCounts(st, e.sh.steps, e.sh.width, e.rep.workers); err != nil {
			e.rep.problem("job %d: %v", e.rep.attempted, err)
		}
		if grain > 0 {
			if err := checkGrain(st.Elapsed, e.sh.steps, st.Workers, st.Tasks, grain); err != nil {
				e.rep.problem("job %d: %v", e.rep.attempted, err)
			}
		}
		out.latency = append(out.latency, took)
		out.elapsed = append(out.elapsed, st.Elapsed)
	}
	out.wall = time.Since(start)
	return out
}

// sweepPoint is one grain of an efficiency sweep.
type sweepPoint struct {
	GrainUs    float64 `json:"grain_us"`
	SlotUs     float64 `json:"slot_us"`
	Efficiency float64 `json:"efficiency"`
}

// sweep measures efficiency (grain ÷ slot time) over busy-wait grains
// from 1 to 128 µs, repeating the whole curve until the budget is
// spent and keeping each grain's median. The METG(50%) crossing is
// read off this curve in the README; it is not a gated metric.
func (e *engineRun) sweep(budget time.Duration, root int32) []sweepPoint {
	grains := []time.Duration{1, 2, 4, 8, 16, 32, 64, 128}
	slots := make([][]float64, len(grains))
	deadline := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for k, gr := range grains {
			e.setKernel(gr * time.Microsecond)
			s := e.loop(0, 1, root)
			if len(s.elapsed) > 0 {
				slots[k] = append(slots[k], s.overheadNs(e.rep.workers, e.rep.tasks)/1e3)
			}
		}
	}
	e.setKernel(0)
	out := make([]sweepPoint, len(grains))
	for k, gr := range grains {
		g, s := float64(gr), median(slots[k])
		out[k] = sweepPoint{GrainUs: g, SlotUs: s, Efficiency: g / s}
	}
	return out
}

// serialBaseline is the serial backend's single-threaded time per task
// on app, the floor any parallel engine's overhead is compared with.
func serialBaseline(app *core.App) float64 {
	rt, err := tbruntime.New("serial")
	if err != nil {
		return 0
	}
	var per []float64
	for k := 0; k < 20; k++ {
		st, err := rt.Run(app)
		if err != nil {
			return 0
		}
		per = append(per, float64(st.Elapsed.Nanoseconds())/float64(st.Tasks))
	}
	return median(per)
}
