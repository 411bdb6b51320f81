package main

import (
	"errors"
	"testing"
	"time"

	"taskbench/internal/cluster"
	"taskbench/internal/core"
	"taskbench/internal/runtime/exec"
)

// A run whose payloads are corrupted must come out failed: the engine
// validates every input, and the job loop counts the error.
func TestFaultyRunIsFailed(t *testing.T) {
	for _, rate := range []float64{0, 1} {
		g, err := core.New(core.Params{Timesteps: 50, MaxWidth: 2, Dependence: core.Stencil1D,
			OutputBytes: 16, FaultRate: rate})
		if err != nil {
			t.Fatal(err)
		}
		app := core.NewApp(g)
		app.Workers = 2
		policy, err := policyOf("taskpool")
		if err != nil {
			t.Fatal(err)
		}
		e := &engineRun{
			engineWorkload: engineWorkload{sh: shape{steps: 50, width: 2, output: 16}},
			app:            app, sess: exec.NewSession(app, policy),
			rep: &report{workers: 2, tasks: app.TotalTasks()},
		}
		e.loop(0, 5, -1)
		if e.rep.attempted != 5 {
			t.Fatalf("rate %v: attempted %d jobs, want 5", rate, e.rep.attempted)
		}
		if rate == 0 && (e.rep.failed != 0 || len(e.rep.problems) != 0) {
			t.Errorf("clean run: failed %d, problems %q", e.rep.failed, e.rep.problems)
		}
		if rate > 0 && (e.rep.failed != 5 || len(e.rep.problems) == 0) {
			t.Errorf("FaultRate %v: failed %d of 5 jobs, problems %q", rate, e.rep.failed, e.rep.problems)
		}
	}
}

func TestStencilClosedForm(t *testing.T) {
	const steps, width, workers = 40, 3, 2
	g := core.MustNew(core.Params{Timesteps: steps, MaxWidth: width, Dependence: core.Stencil1D})
	st := core.StatsFor(core.NewApp(g))
	st.Workers = workers
	if err := checkCounts(st, steps, width, workers); err != nil {
		t.Fatalf("program's own counts: %v", err)
	}
	for name, mut := range map[string]func(*core.RunStats){
		"task+1":    func(s *core.RunStats) { s.Tasks++ },
		"task-1":    func(s *core.RunStats) { s.Tasks-- },
		"dep+1":     func(s *core.RunStats) { s.Dependencies++ },
		"dep-1":     func(s *core.RunStats) { s.Dependencies-- },
		"workers+1": func(s *core.RunStats) { s.Workers++ },
	} {
		bad := st
		mut(&bad)
		if checkCounts(bad, steps, width, workers) == nil {
			t.Errorf("%s passed the closed-form check", name)
		}
	}
}

func TestGrainBounds(t *testing.T) {
	const steps, workers, tasks = 100, 2, 200
	grain := 50 * time.Microsecond
	if err := checkGrain(steps*grain, steps, workers, tasks, grain); err != nil {
		t.Errorf("a perfect run failed: %v", err)
	}
	if checkGrain(steps*grain-1, steps, workers, tasks, grain) == nil {
		t.Error("a run shorter than its critical path passed")
	}
	// 4 tasks per step on 2 workers: the work bound is 2 grains a step.
	if checkGrain(steps*grain, steps, workers, 2*tasks, grain) == nil {
		t.Error("a slot time below the grain passed")
	}
}

func TestFleetCounters(t *testing.T) {
	good := map[string]struct {
		st    cluster.Stats
		jobs  int
		churn bool
	}{
		"warm":        {cluster.Stats{JobsRun: 100, ConfigsBuilt: 1, ConfigsReused: 99}, 100, false},
		"churn":       {cluster.Stats{JobsRun: 100, ConfigsBuilt: 100, ConfigsEvicted: 68}, 100, true},
		"churn-small": {cluster.Stats{JobsRun: 20, ConfigsBuilt: 20}, 20, true},
	}
	for name, c := range good {
		if err := checkFleet(c.st, c.jobs, c.churn, configCapacity); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	bad := map[string]struct {
		st    cluster.Stats
		jobs  int
		churn bool
	}{
		"warm rebuilt":      {cluster.Stats{JobsRun: 100, ConfigsBuilt: 2, ConfigsReused: 98}, 100, false},
		"warm evicted":      {cluster.Stats{JobsRun: 100, ConfigsBuilt: 1, ConfigsReused: 99, ConfigsEvicted: 1}, 100, false},
		"churn reused":      {cluster.Stats{JobsRun: 100, ConfigsBuilt: 99, ConfigsReused: 1, ConfigsEvicted: 67}, 100, true},
		"churn kept all":    {cluster.Stats{JobsRun: 100, ConfigsBuilt: 100}, 100, true},
		"job lost":          {cluster.Stats{JobsRun: 99, ConfigsBuilt: 1, ConfigsReused: 98}, 100, false},
		"job failed":        {cluster.Stats{JobsRun: 100, JobsFailed: 1, ConfigsBuilt: 1, ConfigsReused: 99}, 100, false},
		"warm run as churn": {cluster.Stats{JobsRun: 100, ConfigsBuilt: 1, ConfigsReused: 99}, 100, true},
	}
	for name, c := range bad {
		if checkFleet(c.st, c.jobs, c.churn, configCapacity) == nil {
			t.Errorf("%s passed the fleet check", name)
		}
	}
}

func TestJobReply(t *testing.T) {
	ok := cluster.JobResult{Job: 7, Elapsed: time.Millisecond, Workers: 2}
	if err := checkJob(ok, 2*time.Millisecond, 2, 6); err != nil {
		t.Fatalf("a good reply failed: %v", err)
	}
	for name, mut := range map[string]func(*cluster.JobResult){
		"error":     func(r *cluster.JobResult) { r.Err = errors.New("boom") },
		"rejected":  func(r *cluster.JobResult) { r.Rejected = true },
		"one rank":  func(r *cluster.JobResult) { r.Workers = 1 },
		"duplicate": func(r *cluster.JobResult) { r.Job = 6 },
		"too long":  func(r *cluster.JobResult) { r.Elapsed = 3 * time.Millisecond },
		"no run":    func(r *cluster.JobResult) { r.Elapsed = 0 },
	} {
		bad := ok
		mut(&bad)
		if checkJob(bad, 2*time.Millisecond, 2, 6) == nil {
			t.Errorf("%s passed the reply check", name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for k := range xs {
		xs[k] = float64(1000 - k)
	}
	// Nearest rank: p99 of 1..1000 is 990, leaving ten samples above.
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := median(xs); got != 500 {
		t.Errorf("median = %v, want 500", got)
	}
}
