package main

import (
	"fmt"
	"time"

	"taskbench/internal/cluster"
	"taskbench/internal/core"
)

// stencilCounts is the closed form of a stencil_1d graph of steps ×
// width: every point is a task, and every task after the first row
// reads its own column and both neighbours, minus the two clipped at
// the edges.
func stencilCounts(steps, width int) (tasks, deps int64) {
	s, w := int64(steps), int64(width)
	return s * w, (s - 1) * (3*w - 2)
}

// checkCounts compares a run's statistics with the closed form.
func checkCounts(st core.RunStats, steps, width, workers int) error {
	tasks, deps := stencilCounts(steps, width)
	if st.Tasks != tasks || st.Dependencies != deps {
		return fmt.Errorf("stencil %dx%d ran %d tasks and %d dependencies, want %d and %d",
			steps, width, st.Tasks, st.Dependencies, tasks, deps)
	}
	if st.Workers != workers {
		return fmt.Errorf("run used %d workers, want %d", st.Workers, workers)
	}
	return nil
}

// checkGrain checks a busy-wait run against its two lower bounds: the
// critical path (steps × grain) and the work bound (slot ≥ grain,
// i.e. elapsed × workers ≥ tasks × grain).
func checkGrain(elapsed time.Duration, steps, workers int, tasks int64, grain time.Duration) error {
	if elapsed < time.Duration(steps)*grain {
		return fmt.Errorf("%d steps of %v tasks took %v, below the critical path %v",
			steps, grain, elapsed, time.Duration(steps)*grain)
	}
	if slot := time.Duration(float64(elapsed) * float64(workers) / float64(tasks)); slot < grain {
		return fmt.Errorf("slot time %v is below the %v kernel", slot, grain)
	}
	return nil
}

// checkJob checks one cluster reply: it ran without error on ranks
// ranks, its job id is new, and the run it reports fits inside the
// latency the client saw.
func checkJob(res cluster.JobResult, latency time.Duration, ranks int, lastJob uint64) error {
	switch {
	case res.Rejected:
		return fmt.Errorf("job rejected: %v", res.Err)
	case res.Err != nil:
		return fmt.Errorf("job %d failed: %v", res.Job, res.Err)
	case res.Workers != ranks:
		return fmt.Errorf("job %d ran on %d ranks, want %d", res.Job, res.Workers, ranks)
	case res.Job <= lastJob:
		return fmt.Errorf("job id %d repeats or goes back (last %d): a reply was duplicated", res.Job, lastJob)
	case res.Elapsed <= 0 || res.Elapsed > latency:
		return fmt.Errorf("job %d reports %v of run time, outside the client's %v", res.Job, res.Elapsed, latency)
	}
	return nil
}

// configCounts are the coordinator's configuration counters.
type configCounts struct{ built, reused, evicted int }

func countsOf(s cluster.Stats) configCounts {
	return configCounts{s.ConfigsBuilt, s.ConfigsReused, s.ConfigsEvicted}
}

// expectConfigs is what a schedule of jobs implies: one repeated
// shape builds once and reuses it for every later job; a round-robin
// over more shapes than the cache holds builds every job and, past
// the capacity, evicts one config per job.
func expectConfigs(jobs int, churn bool, capacity int) configCounts {
	if !churn {
		return configCounts{built: 1, reused: jobs - 1}
	}
	return configCounts{built: jobs, evicted: max(jobs-capacity, 0)}
}

// checkFleet compares the coordinator's view of a run with the
// client's: every job the client sent ran once, and the config
// counters match the schedule.
func checkFleet(st cluster.Stats, jobs int, churn bool, capacity int) error {
	if st.JobsRun != jobs || st.JobsFailed != 0 {
		return fmt.Errorf("coordinator ran %d jobs (%d failed), client sent %d", st.JobsRun, st.JobsFailed, jobs)
	}
	if got, want := countsOf(st), expectConfigs(jobs, churn, capacity); got != want {
		return fmt.Errorf("configs built/reused/evicted = %d/%d/%d, schedule implies %d/%d/%d",
			got.built, got.reused, got.evicted, want.built, want.reused, want.evicted)
	}
	return nil
}
