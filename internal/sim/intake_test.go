package sim

import (
	"cmp"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/checkpoint"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
)

// TestFromJobsStartsEqualArrivalsInSliceOrder replays an unsorted slice
// whose equal-arrival jobs have IDs out of order. An arrival's seq comes
// from its yield position, not its ID, so FIFO on one node must start the
// jobs one after another in slice order among equal arrivals.
func TestFromJobsStartsEqualArrivalsInSliceOrder(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	jobs := []*job.Job{
		cpuJob(1, time.Hour, 28, time.Hour), // listed first, arrives last
		cpuJob(9, 0, 28, time.Hour),
		cpuJob(4, 0, 28, time.Hour),
		cpuJob(6, 0, 28, time.Hour),
	}
	res := mustRun(t, opts, sched.NewFIFO(), jobs)
	var order []job.ID
	for _, id := range []job.ID{1, 4, 6, 9} {
		if js := res.Jobs[id]; js == nil || !js.Completed {
			t.Fatalf("job %d did not complete", id)
		}
		order = append(order, id)
	}
	slices.SortFunc(order, func(a, b job.ID) int {
		return cmp.Compare(res.Jobs[a].FirstStart, res.Jobs[b].FirstStart)
	})
	if want := []job.ID{9, 4, 6, 1}; !slices.Equal(order, want) {
		t.Fatalf("start order %v, want %v", order, want)
	}
}

// TestServiceCheckpointKeepsInjectedArrival checkpoints a service after
// InjectArrival has queued a job and before RunUntil delivers it. An
// injected arrival is an ordinary event, not the source's queued arrival,
// so the checkpoint must keep it: the resumed service delivers the job and
// ends in the same dump as the uninterrupted one. The service also replays
// a two-job trace, whose queued arrival the checkpoint skips and Resume
// regenerates; delivering an injected arrival must not draw from it.
func TestServiceCheckpointKeepsInjectedArrival(t *testing.T) {
	opts := serviceOptions()
	s := newSim(t, opts, sched.NewFIFO(), []*job.Job{cpuJob(7, time.Hour, 4, time.Hour), cpuJob(8, 2*time.Hour, 4, 10*time.Minute)})
	mustInject(t, s, cpuJob(1, 0, 4, time.Hour))
	mustRunUntil(t, s, 10*time.Minute)
	mustInject(t, s, cpuJob(2, 0, 4, time.Hour))

	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := encodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	finish := func(s *Simulator) string {
		t.Helper()
		mustRunUntil(t, s, 3*time.Hour)
		for _, id := range []job.ID{1, 2, 7, 8} {
			if got := s.JobPhase(id); got != PhaseCompleted {
				t.Fatalf("job %d is %q at 3h, want %q", id, got, PhaseCompleted)
			}
		}
		res, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return DumpResult(res)
	}
	want := finish(s)

	var decoded Checkpoint
	if err := checkpoint.Decode(data, &decoded); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(&decoded, sched.NewFIFO(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := finish(resumed); got != want {
		t.Fatalf("resumed service diverged at %s", FirstDiff(want, got))
	}
}

// TestResumeMaterializedCheckpoint resumes a checkpoint written mid-run by
// the engine's former materialized constructor, which queued every trace
// arrival as an event up front and stored no trace cursor. The fixture is
// ckptWorkload under CODA with the options stored in the checkpoint, and
// the dump next to it is that run's final result: the resumed run must
// reach it exactly, and so must a fresh replay of the same trace.
func TestResumeMaterializedCheckpoint(t *testing.T) {
	data, err := os.ReadFile("testdata/materialized.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/materialized.dump")
	if err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := checkpoint.Decode(data, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Trace != nil {
		t.Fatal("fixture carries a trace cursor; it must predate the single intake path")
	}
	queued := 0
	for _, e := range ck.Events {
		if eventKind(e.Kind) == evArrival {
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("fixture has no queued arrivals")
	}
	opts := ck.Options.Clone()

	resumed, err := Resume(&ck, codaScheduler(t, opts), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := DumpResult(res); got != string(want) {
		t.Fatalf("resumed materialized checkpoint diverged at %s", FirstDiff(string(want), got))
	}

	res, err = newSim(t, opts, codaScheduler(t, opts), ckptWorkload()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := DumpResult(res); got != string(want) {
		t.Fatalf("fresh replay diverged from the materialized run at %s", FirstDiff(string(want), got))
	}
}

// TestReplayKnowsItsLastArrival: a replay's trace window is known up
// front, so a run capped by MaxVirtualTime before the last arrival still
// reports that arrival as the window's end.
func TestReplayKnowsItsLastArrival(t *testing.T) {
	opts := testOptions()
	opts.MaxVirtualTime = 2 * time.Hour
	res := mustRun(t, opts, sched.NewFIFO(), []*job.Job{
		cpuJob(1, 0, 2, time.Hour),
		cpuJob(2, 5*time.Hour, 2, time.Hour),
	})
	if res.LastArrival != 5*time.Hour {
		t.Fatalf("LastArrival = %v, want 5h", res.LastArrival)
	}
	if js := res.Jobs[2]; js != nil {
		t.Fatalf("job 2 arrived after the cap: %+v", js)
	}
}
