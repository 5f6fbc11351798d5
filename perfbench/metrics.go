package main

// perLayer is every per-layer metric a traced run reports, in the order
// BENCHMARK.json lists them. A workload on which a layer does no work
// reports the metric as 0 and prints why.
var perLayer = []struct{ name, unit string }{
	{"core.submit.calls", "count"}, {"core.submit.self_ms", "ms"},
	{"core.tick.calls", "count"}, {"core.tick.self_ms", "ms"}, {"core.complete.self_ms", "ms"},
	{"core.audit.self_ms", "ms"}, {"core.preemptions", "count"}, {"core.throttles", "count"},
	{"sched.submit.calls", "count"}, {"sched.submit.self_ms", "ms"},
	{"sched.tick.calls", "count"}, {"sched.tick.self_ms", "ms"}, {"sched.complete.self_ms", "ms"},
	{"cluster.placement_queries", "count"}, {"cluster.placement_hit_ratio", "ratio"},
	{"sim.env.start.calls", "count"}, {"sim.env.start.ms", "ms"},
	{"sim.env.resize.calls", "count"}, {"sim.env.resize.ms", "ms"},
	{"sim.env.preempt.calls", "count"}, {"sim.env.preempt.ms", "ms"},
	{"sim.env.throttle.calls", "count"}, {"sim.env.throttle.ms", "ms"},
	{"sim.env.gpuutil.calls", "count"}, {"sim.env.gpuutil.ms", "ms"},
	{"sim.env.meter.calls", "count"},
	{"sim.events", "count"}, {"sim.loop.self_ms", "ms"}, {"sim.ns_per_event", "ns"},
	{"sim.gpu_queue_mean_min", "min"},
	{"trace.ns_per_job", "ns"},
	{"go.allocs_per_event", "count"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"ctl.tick.calls", "count"}, {"ctl.tick.busy_ms", "ms"}, {"ctl.batch_size", "count"},
	{"ctl.apply.self_ms", "ms"}, {"ctl.queue_wait_p50_ms", "ms"}, {"ctl.queue_wait_p99_ms", "ms"},
	{"wal.append.calls", "count"}, {"wal.append.ms", "ms"}, {"wal.bytes_per_request", "B"},
	{"checkpoint.save.calls", "count"}, {"checkpoint.save.ms", "ms"},
	{"http.read.server_p99_ms", "ms"}, {"http.read.client_p99_ms", "ms"}, {"http.shed", "count"},
	{"ctl.resume.replayed_records", "count"}, {"ctl.resume.ms", "ms"},
	{"load.lateness_p99_ms", "ms"}, {"load.ack_p99_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// fillAbsent reports every per-layer metric the run did not set as absent,
// with the reason why gives for it.
func (o *outcome) fillAbsent(why func(name string) string) {
	for _, m := range perLayer {
		if _, ok := o.metrics[m.name]; !ok {
			o.absent(m.name, m.unit, why(m.name))
		}
	}
}

// unitOf returns a per-layer metric's unit.
func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// put sets a per-layer metric with its listed unit.
func (o *outcome) put(name string, v float64) { o.set(name, unitOf(name), v) }

// layer returns the aggregated spans of one name from the run's tracer.
func (o *outcome) layer(name string) *LayerStats {
	if o.agg == nil {
		spans, names := o.spans.Snapshot()
		o.agg = Aggregate(spans, names)
	}
	if s, ok := o.agg[name]; ok {
		return s
	}
	return &LayerStats{}
}

func ms(ns int64) float64 { return float64(ns) / nsPerMs }

// layerMetrics sets the scheduler, cluster and simulator metrics that the
// engine and serve workloads both derive from their spans and result.
func layerMetrics(o *outcome, res kept) {
	for _, layer := range []string{"core", "sched"} {
		if o.layer(layer+".submit").Calls == 0 {
			continue
		}
		o.put(layer+".submit.calls", float64(o.layer(layer+".submit").Calls))
		o.put(layer+".submit.self_ms", ms(o.layer(layer+".submit").SelfNs))
		o.put(layer+".tick.calls", float64(o.layer(layer+".tick").Calls))
		o.put(layer+".tick.self_ms", ms(o.layer(layer+".tick").SelfNs))
		o.put(layer+".complete.self_ms", ms(o.layer(layer+".complete").SelfNs))
		if a := o.layer(layer + ".audit"); a.Calls > 0 {
			o.put(layer+".audit.self_ms", ms(a.SelfNs))
		}
		if layer == "core" {
			o.put("core.preemptions", float64(res.preemptions))
			o.put("core.throttles", float64(res.throttles))
		}
	}
	o.put("cluster.placement_queries", float64(res.placementQueries))
	if res.placementQueries > 0 {
		o.put("cluster.placement_hit_ratio", float64(o.layer("sim.env.start").Calls)/float64(res.placementQueries))
	}
	for _, op := range []string{"start", "resize", "preempt", "throttle", "gpuutil"} {
		s := o.layer("sim.env." + op)
		o.put("sim.env."+op+".calls", float64(s.Calls))
		o.put("sim.env."+op+".ms", ms(s.TotalNs))
	}
	o.put("sim.env.meter.calls", float64(o.spans.Counter("sim.env.meter").Load()))
	o.put("sim.events", float64(res.events))
	o.put("sim.gpu_queue_mean_min", res.gpuQueueMeanMin)
}
