package main

import (
	"testing"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/ctl"
	"github.com/coda-repro/coda/internal/ctl/wal"
	"github.com/coda-repro/coda/internal/experiments"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// The engine type-asserts sched.Checkpointer, sched.Canceller and the
// scheduler audit; a wrapper must keep exactly the optional interfaces of
// what it wraps.
func TestWrapperKeepsOptionalInterfaces(t *testing.T) {
	drf, err := sched.NewDRF(80*28, 80*4)
	if err != nil {
		t.Fatal(err)
	}
	coda, err := core.NewForCluster(core.DefaultConfig(), cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []sched.Scheduler{sched.NewFIFO(), drf, sched.NewStatic(28, 4), coda} {
		w, err := wrapScheduler(inner, NewTracer())
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != inner.Name() {
			t.Errorf("%s: wrapper is named %q", inner.Name(), w.Name())
		}
		_, innerCk := inner.(sched.Checkpointer)
		_, wrapCk := w.(sched.Checkpointer)
		_, innerCn := inner.(sched.Canceller)
		_, wrapCn := w.(sched.Canceller)
		_, innerAu := inner.(auditor)
		_, wrapAu := w.(auditor)
		if innerCk != wrapCk || innerCn != wrapCn || innerAu != wrapAu {
			t.Errorf("%s: checkpointer %v->%v, canceller %v->%v, auditor %v->%v",
				inner.Name(), innerCk, wrapCk, innerCn, wrapCn, innerAu, wrapAu)
		}
	}
	if _, ok := any(coda).(auditor); !ok {
		t.Fatal("core.Scheduler no longer audits itself; the auditor case is untested")
	}
}

// A traced replay must decide exactly what an untraced one does.
func TestTracedReplayIsIdentical(t *testing.T) {
	for _, name := range []string{"fifo", "coda"} {
		t.Run(name, func(t *testing.T) {
			spec, err := experiments.BenchSpec(experiments.TinyScale(), name, true)
			if err != nil {
				t.Fatal(err)
			}
			var dumps [2]string
			tr := NewTracer()
			for i, tracer := range []*Tracer{nil, tr} {
				var got *sim.Result
				r, err := replay(spec, tracer, func(res *sim.Result, _ string) error { got = res; return nil })
				if err != nil {
					t.Fatal(err)
				}
				if r.events == 0 {
					t.Fatal("replay processed no events")
				}
				dumps[i] = sim.DumpResult(got)
			}
			if dumps[0] != dumps[1] {
				t.Fatalf("traced replay diverged: %s", sim.FirstDiff(dumps[0], dumps[1]))
			}
			spans, _ := tr.Snapshot()
			if len(spans) == 0 {
				t.Fatal("traced replay recorded no spans")
			}
		})
	}
}

// A control plane with every seam wrapped still checkpoints, runs CODA's
// per-event audit, and resumes to a machine that knows every acked job.
func TestTracedServeCheckpointsAndResumes(t *testing.T) {
	tc := trace.DefaultConfig()
	tc.CPUJobs, tc.GPUJobs = 150, 50
	jobs, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	script, err := ctl.ScriptFromJobs(jobs, serveTick, 1, ctl.RequestChaos{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	log, store := wal.NewMemLog(), wal.NewMemStore()
	cfg := serveConfig(1, log, store, tr)
	cfg.CheckpointEvery = 16
	m, err := ctl.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var acked []int64
	for i := 0; i < len(script); i += 7 {
		batch := script[i:min(i+7, len(script))]
		reqs := make([]ctl.Request, len(batch))
		for k, st := range batch {
			reqs[k] = st.Req
		}
		resps, err := m.ApplyBatch(batch[len(batch)-1].At, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resps {
			if r.JobID > 0 {
				acked = append(acked, r.JobID)
			}
		}
	}
	spans, names := tr.Snapshot()
	agg := Aggregate(spans, names)
	if agg["checkpoint.save"] == nil || agg["checkpoint.save"].Calls == 0 {
		t.Fatal("traced machine took no checkpoints")
	}
	if agg["wal.append"] == nil || agg["wal.append"].Calls == 0 {
		t.Fatal("traced machine appended nothing to the WAL")
	}
	if agg["core.audit"] == nil || agg["core.audit"].Calls == 0 {
		t.Fatal("the engine never reached CODA's own audit through the wrapper")
	}

	r, recovered, err := ctl.Resume(serveConfig(1, log, store, NewTracer()))
	if err != nil {
		t.Fatal(err)
	}
	if !recovered || r.Counters().ServeReplayed >= int(m.Applied()) {
		t.Fatalf("resume replayed %d of %d records: the checkpoint was not used", r.Counters().ServeReplayed, m.Applied())
	}
	if err := checkRecovered(r, m.Applied(), acked); err != nil {
		t.Fatal(err)
	}
	for _, id := range acked {
		if got, want := r.JobStatus(id), m.JobStatus(id); got.Phase != want.Phase {
			t.Fatalf("job %d: resumed phase %q, live phase %q", id, got.Phase, want.Phase)
		}
	}
}
