package main

import (
	"fmt"
	"time"
)

// serviceTrace is what the traced service loop measured from outside
// ksymd: per-op phase times and the journal counter deltas.
type serviceTrace struct {
	loop     loopResult
	ops      []*svcOp
	fresh    int
	rejected int
	failed   int
	counters map[string]int64 // ksymd counter deltas over the loop
}

// tracedLoop runs plan against a freshly set-up daemon and reads the
// journal counters before and after it.
func tracedLoop(ksymdBin, dataDir string, seed int64, plan [][]*svcOp) (*serviceTrace, error) {
	d, err := serviceSetup(ksymdBin, dataDir, seed)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	before, err := d.metrics(hc)
	if err != nil {
		_, _ = d.stop()
		return nil, err
	}
	lr := runLoop(d.base, plan)
	after, err := d.metrics(hc)
	if _, serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	st := &serviceTrace{loop: lr, counters: map[string]int64{}}
	for _, k := range []string{"journal.appends", "journal.fsyncs", "journal.append_bytes",
		"server.rejected_full", "server.tenant_rejected_rate", "server.tenant_rejected_depth", "server.failed"} {
		st.counters[k] = after[k] - before[k]
	}
	st.rejected = int(st.counters["server.rejected_full"] + st.counters["server.tenant_rejected_rate"] + st.counters["server.tenant_rejected_depth"])
	st.failed = int(st.counters["server.failed"])
	for _, ops := range plan {
		for _, op := range ops {
			st.ops = append(st.ops, op)
			if op.orig == nil {
				st.fresh++
			}
		}
	}
	return st, nil
}

// layerNames are the layer operations timed in-process, each reported
// as <name>_ms.p50 and <name>_ms.tail.
var layerNames = []string{
	"graph.read", "graph.csr", "refine.tdv", "automorphism.orbits",
	"ksym.anonymize", "ksym.minimal", "sampling.batch", "publish.write",
}

// serverPhases are the per-op service phases, reported the same way.
var serverPhases = []struct {
	name string
	get  func(*opPhases) time.Duration
}{
	{"server.admit", func(p *opPhases) time.Duration { return p.admit }},
	{"server.queue_wait", func(p *opPhases) time.Duration { return p.queueWait }},
	{"server.run", func(p *opPhases) time.Duration { return p.run }},
	{"server.notify", func(p *opPhases) time.Duration { return p.notify }},
	{"server.result", func(p *opPhases) time.Duration { return p.result }},
	{"server.replay", func(p *opPhases) time.Duration { return p.replay }},
}

// layerMetrics assembles the per-layer metrics of a traced run. Every
// workload prints every name; a layer the workload does not reach reads
// 0. untraced is the wall time of the same work run untraced, for the
// tracing overhead. ks holds the degree KS distance of every sample
// the traced run drew or checked.
func layerMetrics(t *tracer, st *serviceTrace, untraced time.Duration, ks []float64) map[string]metric {
	m := map[string]metric{}
	for _, name := range layerNames {
		m[name+"_ms.p50"] = metric{median(t.times[name]), "ms"}
		m[name+"_ms.tail"] = metric{tail(t.times[name]), "ms"}
	}
	c := t.counters()
	count := func(name, key string) { m[name] = metric{float64(c[key]), "count"} }
	m["graph.read_alloc_mb"] = metric{t.allocs["graph.read"], "MB"}
	count("refine.splitter_passes", "refine.splitter_passes")
	count("refine.cell_splits", "refine.cell_splits")
	count("automorphism.nodes", "search.nodes")
	count("automorphism.candidate_scans", "search.candidate_scans")
	count("automorphism.pair_searches", "search.pair_searches")
	count("automorphism.budget_exhausted", "search.budget_exhausted")
	m["ksym.alloc_mb"] = metric{t.allocs["ksym.anonymize"] + t.allocs["ksym.minimal"], "MB"}
	count("ksym.orbit_copies", "ksym.orbit_copies")
	count("ksym.vertices_copied", "ksym.vertices_copied")
	count("ksym.backbone_components", "backbone.components")
	count("sampling.dfs_steps", "sampling.dfs_steps")
	count("sampling.dfs_restarts", "sampling.dfs_restarts")
	accept := 0.0
	if s := c["sampling.samples"]; s > 0 {
		accept = float64(s) / float64(s+c["sampling.dfs_restarts"])
	}
	m["sampling.accept_ratio"] = metric{accept, "ratio"}
	meanKS := 0.0
	for _, v := range ks {
		meanKS += v / float64(len(ks))
	}
	m["sample_degree_ks"] = metric{meanKS, "ratio"}
	m["publish.bytes"] = metric{float64(t.bytes), "B"}

	traced := t.wall
	phases := map[string][]float64{}
	var rejected, failed float64
	var appends, fsyncs, jbytes float64
	if st != nil {
		traced = st.loop.wall
		for _, op := range st.ops {
			if op.latency == 0 {
				continue
			}
			for _, ph := range serverPhases {
				if d := ph.get(&op.ph); d > 0 {
					phases[ph.name] = append(phases[ph.name], float64(d.Nanoseconds())/1e6)
				}
			}
		}
		rejected, failed = float64(st.rejected), float64(st.failed)
		fresh := float64(max(st.fresh, 1))
		appends = float64(st.counters["journal.appends"]) / fresh
		fsyncs = float64(st.counters["journal.fsyncs"]) / fresh
		jbytes = float64(st.counters["journal.append_bytes"]) / fresh
	}
	for _, ph := range serverPhases {
		m[ph.name+"_ms.p50"] = metric{median(phases[ph.name]), "ms"}
		m[ph.name+"_ms.tail"] = metric{tail(phases[ph.name]), "ms"}
	}
	m["server.rejected"] = metric{rejected, "count"}
	m["server.failed"] = metric{failed, "count"}
	m["journal.appends_per_job"] = metric{appends, "count/job"}
	m["journal.fsyncs_per_job"] = metric{fsyncs, "count/job"}
	m["journal.bytes_per_job"] = metric{jbytes, "B/job"}

	m["trace.untraced_wall_s"] = metric{untraced.Seconds(), "s"}
	m["trace.traced_wall_s"] = metric{traced.Seconds(), "s"}
	ratio := 0.0
	if untraced > 0 {
		ratio = traced.Seconds() / untraced.Seconds()
	}
	m["trace.overhead_ratio"] = metric{ratio, "ratio"}
	return m
}
