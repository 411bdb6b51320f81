package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/runtime/tcp"
	"taskbench/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark
// around the program's public functions; nothing inside the program is
// instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 at the root
	Job    uint64 `json:"job,omitempty"`
	// Items is how many operations the span covers (tasks walked,
	// steps exchanged, jobs encoded), so per-operation figures are
	// measured without a clock read per operation.
	Items int64 `json:"items,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is used from the
// one goroutine that drives the workload. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) begin(name string, parent int32, job uint64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Job: job})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32, items int64) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].Items = items
}

// selfNs returns, for every closed span called name, its self time
// (its duration minus its children's, which never overlap because one
// goroutine records them) divided by its item count.
func (t *tracer) selfNs(name string) []float64 {
	child := make(map[int32]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for k, s := range t.spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		items := max(s.Items, 1)
		out = append(out, float64(s.End-s.Start-child[int32(k)])/float64(items))
	}
	return out
}

// write saves the spans and the run's reference figures under cfg.out.
func (t *tracer) write(cfg config, workload string, rep *report) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Layers   map[string]metric  `json:"layers"`
		Sweep    []sweepPoint       `json:"sweep,omitempty"`
		Extra    map[string]float64 `json:"extra,omitempty"`
		Spans    []span             `json:"spans"`
	}{workload, cfg.seed, rep.layers, rep.sweep, rep.extra, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", workload, cfg.seed))
	return os.WriteFile(path, b, 0o644)
}

// memDelta samples the allocator so a phase's allocation and GC
// counts can be taken as differences.
type memDelta struct{ mallocs, bytes, gcs uint64 }

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC)}
}

func (a memDelta) to(b memDelta) memDelta {
	return memDelta{b.mallocs - a.mallocs, b.bytes - a.bytes, b.gcs - a.gcs}
}

func (a memDelta) plus(b memDelta) memDelta {
	return memDelta{a.mallocs + b.mallocs, a.bytes + b.bytes, a.gcs + b.gcs}
}

// interleave runs an empty-kernel loop for d in alternating short
// chunks, untraced and then with a span per job under root, until each
// side has minJobs jobs. Both sides see the same host conditions, so
// the difference of their medians is the tracing overhead. mem is the
// allocator activity of the untraced chunks alone.
func interleave(d time.Duration, root int32, loop func(d time.Duration, parent int32) (samples, error)) (untraced, traced samples, mem memDelta, err error) {
	const chunk = 100 * time.Millisecond
	start := time.Now()
	for time.Since(start) < d || len(untraced.latency) < minJobs || len(traced.latency) < minJobs {
		before := readMem()
		u, err := loop(chunk, -1)
		mem = mem.plus(before.to(readMem()))
		if err != nil {
			return untraced, traced, mem, err
		}
		untraced.add(u)
		t, err := loop(chunk, root)
		if err != nil {
			return untraced, traced, mem, err
		}
		traced.add(t)
	}
	return untraced, traced, mem, nil
}

// addJobLayers fills the per-layer metrics every workload derives from
// its job loops: the run and control split of a traced job, the
// dispatch remainder of the untraced task overhead, allocator activity
// (mem over the untraced empty loop, all over every loop) and the
// tracing overhead.
func addJobLayers(layers map[string]metric, rep *report, traced samples, mem, all memDelta, configs configCounts) {
	run := make([]float64, len(traced.elapsed))
	control := make([]float64, len(traced.elapsed))
	for k, e := range traced.elapsed {
		run[k] = float64(e.Nanoseconds()) / 1e6
		control[k] = float64((traced.latency[k] - e).Nanoseconds()) / 1e6
	}
	layers["cluster.run_ms"] = metric{median(run), "ms"}
	layers["cluster.control_ms"] = metric{median(control), "ms"}
	layers["exec.dispatch_ns"] = metric{rep.empty.overheadNs(rep.workers, rep.tasks) -
		layers["core.execute_point_ns"].Value - layers["core.dep_query_ns"].Value, "ns"}
	layers["exec.allocs_per_task"] = metric{float64(mem.mallocs) / float64(int64(len(rep.empty.latency))*rep.tasks), "allocs"}
	layers["cluster.configs_built"] = metric{float64(configs.built), "count"}
	layers["cluster.configs_reused"] = metric{float64(configs.reused), "count"}
	layers["cluster.configs_evicted"] = metric{float64(configs.evicted), "count"}
	layers["go.gc_cycles"] = metric{float64(all.gcs), "count"}
	layers["go.alloc_mib"] = metric{float64(all.bytes) / (1 << 20), "MiB"}
	untraced := rep.empty.p50ms()
	layers["trace.overhead_pct"] = metric{(traced.p50ms() - untraced) / untraced * 100, "%"}
}

// probeInputs are the workload's own inputs, handed to each layer's
// public functions in turn.
type probeInputs struct {
	app *core.App // kernel set to empty
	// local, when set, builds the rank plan a cluster worker builds:
	// rows for the first rank's span only.
	local bool
	msgs  []wire.Message // the control messages one job sends
}

// probeLayers times each layer on the workload's inputs until the
// budget is spent, in rounds so every layer gets samples, and returns
// the per-operation figures.
func probeLayers(in probeInputs, budget time.Duration, tr *tracer, root int32) (map[string]metric, error) {
	frames, bytesPerJob, err := encodeAll(in.msgs)
	if err != nil {
		return nil, err
	}
	g := in.app.Graphs[0]
	const ranks = 2
	deadline := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		// core: one PointDeps walk over every task of the graph.
		id := tr.begin("core.PointDeps", root, 0)
		n := walkDeps(g)
		tr.end(id, n)

		// core: ExecutePoint (fill and validate) over every task.
		id = tr.begin("core.ExecutePoint", root, 0)
		n, err := executeAll(g)
		tr.end(id, n)
		if err != nil {
			return nil, err
		}

		id = tr.begin("exec.BuildPlan", root, 0)
		keepPlan = exec.BuildPlan(in.app)
		tr.end(id, 1)

		id = tr.begin("exec.BuildRankPlan", root, 0)
		if in.local {
			keepRankPlan = exec.BuildRankPlanLocal(in.app, ranks, exec.Span{Lo: 0, Hi: 1})
		} else {
			keepRankPlan = exec.BuildRankPlan(in.app, ranks)
		}
		tr.end(id, 1)

		// tcp: connect a loopback mesh for the full plan, then drive
		// batched exchange steps through it. Meshes leave sockets in
		// TIME_WAIT, so only the first few rounds connect one.
		if round < 8 {
			if err := probeMesh(exec.BuildRankPlan(in.app, ranks), tr, root); err != nil {
				return nil, err
			}
		}

		id = tr.begin("wire.AppendMessageBinary", root, 0)
		const jobs = 200
		buf := make([]byte, 0, 4096)
		for k := 0; k < jobs; k++ {
			for _, m := range in.msgs {
				buf, _ = wire.AppendMessageBinary(buf[:0], m)
			}
		}
		tr.end(id, jobs)

		id = tr.begin("wire.DecodeMessageBinary", root, 0)
		for k := 0; k < jobs; k++ {
			for _, f := range frames {
				if _, err := wire.DecodeMessageBinary(f); err != nil {
					return nil, err
				}
			}
		}
		tr.end(id, jobs)
	}
	return map[string]metric{
		"core.dep_query_ns":      {median(tr.selfNs("core.PointDeps")), "ns"},
		"core.execute_point_ns":  {median(tr.selfNs("core.ExecutePoint")), "ns"},
		"exec.plan_build_ms":     {median(tr.selfNs("exec.BuildPlan")) / 1e6, "ms"},
		"exec.rankplan_build_ms": {median(tr.selfNs("exec.BuildRankPlan")) / 1e6, "ms"},
		"tcp.mesh_connect_ms":    {median(tr.selfNs("tcp.NewMeshTransport")) / 1e6, "ms"},
		"tcp.step_us":            {median(tr.selfNs("tcp.step")) / 1e3, "us"},
		"wire.encode_ns":         {median(tr.selfNs("wire.AppendMessageBinary")), "ns"},
		"wire.decode_ns":         {median(tr.selfNs("wire.DecodeMessageBinary")), "ns"},
		"wire.bytes_per_job":     {float64(bytesPerJob), "B"},
	}, nil
}

// keepPlan and keepRankPlan hold the last probed plans so the builds
// are not optimised away.
var (
	keepPlan     *exec.Plan
	keepRankPlan *exec.RankPlan
)

// walkDeps runs one PointDeps query per task and returns the task
// count.
func walkDeps(g *core.Graph) int64 {
	var tasks, deps int64
	for t := 0; t < g.Timesteps; t++ {
		off, w := g.OffsetAtTimestep(t), g.WidthAtTimestep(t)
		for i := off; i < off+w; i++ {
			it := g.PointDeps(t, i)
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				deps++
			}
			tasks++
		}
	}
	sinkDeps = deps
	return tasks
}

var sinkDeps int64

// executeAll runs every task of g in timestep order over two rows of
// payloads, validating every input as the engines do.
func executeAll(g *core.Graph) (int64, error) {
	prev := make([][]byte, g.MaxWidth)
	cur := make([][]byte, g.MaxWidth)
	for i := range prev {
		prev[i] = make([]byte, g.OutputBytes)
		cur[i] = make([]byte, g.OutputBytes)
	}
	var inputs [][]byte
	var tasks int64
	for t := 0; t < g.Timesteps; t++ {
		off, w := g.OffsetAtTimestep(t), g.WidthAtTimestep(t)
		for i := off; i < off+w; i++ {
			inputs = inputs[:0]
			it := g.PointDeps(t, i)
			for dep, ok := it.Next(); ok; dep, ok = it.Next() {
				inputs = append(inputs, prev[dep])
			}
			if err := g.ExecutePoint(t, i, cur[i], inputs, nil, true); err != nil {
				return tasks, err
			}
			tasks++
		}
		prev, cur = cur, prev
	}
	return tasks, nil
}

// probeMesh connects a loopback mesh hosting every rank of plan and
// times batched exchange steps over it: every cross-rank edge of one
// timestep is sent, each rank flushes, and every payload is received.
func probeMesh(plan *exec.RankPlan, tr *tracer, root int32) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addrs := make([]string, plan.Ranks)
	for r := range addrs {
		addrs[r] = ln.Addr().String()
	}
	id := tr.begin("tcp.NewMeshTransport", root, 0)
	mesh, err := tcp.NewMeshTransport(plan, tcp.Topology{
		Local: exec.Span{Lo: 0, Hi: plan.Ranks}, Addrs: addrs, Listener: ln, Timeout: 30 * time.Second,
	})
	tr.end(id, 1)
	if err != nil {
		return fmt.Errorf("mesh: %w", err)
	}
	defer mesh.Close()

	g := plan.App.Graphs[0]
	edges := plan.Edges(0)
	owners := make([]int, len(edges))
	for k, e := range edges {
		owners[k] = exec.OwnerOf(e.Producer, g.MaxWidth, plan.Ranks)
	}
	payload := make([]byte, g.OutputBytes)
	const steps = 100
	id = tr.begin("tcp.step", root, 0)
	for s := 0; s < steps; s++ {
		for k, e := range edges {
			if err := mesh.Send(owners[k], 0, e.Producer, e.Consumer, payload); err != nil {
				return err
			}
		}
		for r := 0; r < plan.Ranks; r++ {
			if err := mesh.Flush(r); err != nil {
				return err
			}
		}
		for _, e := range edges {
			got := mesh.Recv(0, e.Producer, e.Consumer)
			if len(got) != len(payload) {
				return fmt.Errorf("mesh delivered %d bytes, sent %d: %v", len(got), len(payload), mesh.Err())
			}
			mesh.Recycle(0, got)
		}
	}
	tr.end(id, steps)
	return nil
}

// encodeAll encodes each message once, for the decode probe and the
// byte count.
func encodeAll(msgs []wire.Message) ([][]byte, int, error) {
	frames := make([][]byte, len(msgs))
	total := 0
	for k, m := range msgs {
		f, err := wire.AppendMessageBinary(nil, m)
		if err != nil {
			return nil, 0, err
		}
		frames[k] = f
		total += len(f)
	}
	return frames, total, nil
}

// jobMessages are the control messages one job of spec sends on a
// 2-worker fleet: submit, accepted, a run and a result per worker,
// and done; a job that provisions adds prepare, prepared, connect,
// ready and release per worker.
func jobMessages(spec wire.AppSpec, provisions bool) []wire.Message {
	const cfgID, job = 41, 1234
	v := wire.ProtoVersion
	kernels := wire.KernelsOf(spec)
	msgs := []wire.Message{
		{V: v, Type: wire.MsgSubmit, Spec: &spec, Proto: wire.ProtoBinary},
		{V: v, Type: wire.MsgAccepted, Job: job, Proto: wire.ProtoBinary},
	}
	addrs := []string{"127.0.0.1:40001", "127.0.0.1:40002"}
	for w := 0; w < 2; w++ {
		if provisions {
			msgs = append(msgs,
				wire.Message{V: v, Type: wire.MsgPrepare, Config: cfgID, Spec: &spec, Ranks: 2, RankLo: w, RankHi: w + 1},
				wire.Message{V: v, Type: wire.MsgPrepared, Config: cfgID, Addr: addrs[w]},
				wire.Message{V: v, Type: wire.MsgConnect, Config: cfgID, Addrs: addrs},
				wire.Message{V: v, Type: wire.MsgReady, Config: cfgID},
				wire.Message{V: v, Type: wire.MsgRelease, Config: cfgID - 32})
		}
		msgs = append(msgs,
			wire.Message{V: v, Type: wire.MsgRun, Config: cfgID, Job: job, Attempt: 1, Kernels: kernels},
			wire.Message{V: v, Type: wire.MsgResult, Config: cfgID, Job: job, Attempt: 1, ElapsedNanos: 187_654})
	}
	return append(msgs, wire.Message{V: v, Type: wire.MsgDone, Job: job, ElapsedNanos: 187_654, Workers: 2})
}
