package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
)

// serviceOptions is testOptions with the control-plane surface switched on.
func serviceOptions() Options {
	opts := testOptions()
	opts.Service = true
	return opts
}

func newService(t *testing.T, opts Options, s sched.Scheduler) *Simulator {
	t.Helper()
	simulator := newSim(t, opts, s, nil)
	return simulator
}

func mustRunUntil(t *testing.T, s *Simulator, at time.Duration) {
	t.Helper()
	if err := s.RunUntil(at); err != nil {
		t.Fatalf("RunUntil(%v): %v", at, err)
	}
}

func mustInject(t *testing.T, s *Simulator, j *job.Job) {
	t.Helper()
	if err := s.InjectArrival(j); err != nil {
		t.Fatalf("InjectArrival(job %d): %v", j.ID, err)
	}
}

// TestServiceCallsRejectBatchSimulator pins the guard on every service-mode
// entry point: a simulator built without Options.Service refuses them all
// with ErrNotService instead of silently corrupting a batch run.
func TestServiceCallsRejectBatchSimulator(t *testing.T) {
	s := newSim(t, testOptions(), sched.NewFIFO(), nil)
	if err := s.RunUntil(time.Minute); !errors.Is(err, ErrNotService) {
		t.Errorf("RunUntil on batch sim: err = %v, want ErrNotService", err)
	}
	if err := s.InjectArrival(cpuJob(1, 0, 2, time.Minute)); !errors.Is(err, ErrNotService) {
		t.Errorf("InjectArrival on batch sim: err = %v, want ErrNotService", err)
	}
	if err := s.InjectFault(chaos.Fault{Kind: chaos.KindNodeDrain}); !errors.Is(err, ErrNotService) {
		t.Errorf("InjectFault on batch sim: err = %v, want ErrNotService", err)
	}
	if err := s.CancelJob(1); !errors.Is(err, ErrNotService) {
		t.Errorf("CancelJob on batch sim: err = %v, want ErrNotService", err)
	}
	if _, err := s.Finish(); !errors.Is(err, ErrNotService) {
		t.Errorf("Finish on batch sim: err = %v, want ErrNotService", err)
	}
}

// TestServiceLifecycle walks one job population through every lifecycle
// phase the control plane can observe — pending, running, cancelled (both
// queued and running), completed, unknown — checking JobPhase, JobPlacement,
// duplicate-ID rejection in each state, and the Stats counters along the way.
func TestServiceLifecycle(t *testing.T) {
	opts := serviceOptions()
	opts.Cluster.Nodes = 1 // one 28-core node, so a second 28-core job must queue
	s := newService(t, opts, sched.NewFIFO())

	if got := s.Stats(); got.Now != 0 || got.Pending != 0 || got.Running != 0 || got.Retrying != 0 {
		t.Fatalf("fresh service stats = %+v, want all-zero", got)
	}
	if err := s.InjectArrival(nil); err == nil {
		t.Error("InjectArrival(nil) succeeded, want error")
	}
	if err := s.InjectArrival(&job.Job{ID: 9, Kind: job.KindCPU, Tenant: 1}); err == nil {
		t.Error("InjectArrival with zero resource request succeeded, want validation error")
	}

	mustInject(t, s, cpuJob(1, 0, 28, 12*time.Hour))
	mustRunUntil(t, s, time.Minute)
	if got := s.JobPhase(1); got != PhaseRunning {
		t.Fatalf("JobPhase(1) = %q, want %q", got, PhaseRunning)
	}
	if nodes := s.JobPlacement(1); len(nodes) != 1 {
		t.Fatalf("JobPlacement(1) = %v, want exactly one node", nodes)
	}
	if err := s.InjectArrival(cpuJob(1, 0, 2, time.Minute)); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate inject of running job: err = %v, want already-exists", err)
	}

	mustInject(t, s, cpuJob(2, 0, 28, time.Hour))
	mustRunUntil(t, s, 2*time.Minute)
	if got := s.JobPhase(2); got != PhasePending {
		t.Fatalf("JobPhase(2) = %q, want %q", got, PhasePending)
	}
	if nodes := s.JobPlacement(2); nodes != nil {
		t.Errorf("JobPlacement of a queued job = %v, want nil", nodes)
	}
	if err := s.InjectArrival(cpuJob(2, 0, 2, time.Minute)); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate inject of queued job: err = %v, want already-exists", err)
	}
	if err := s.RunUntil(time.Minute); err == nil {
		t.Error("RunUntil into the past succeeded, want error")
	}

	// Cancel the queued job (FIFO implements sched.Canceller) and then the
	// running one; both must report PhaseCancelled, and a second cancel of
	// an already-final job must be a deterministic rejection.
	if err := s.CancelJob(2); err != nil {
		t.Fatalf("CancelJob(queued 2): %v", err)
	}
	if got := s.JobPhase(2); got != PhaseCancelled {
		t.Errorf("JobPhase(2) after cancel = %q, want %q", got, PhaseCancelled)
	}
	if err := s.CancelJob(1); err != nil {
		t.Fatalf("CancelJob(running 1): %v", err)
	}
	if got := s.JobPhase(1); got != PhaseCancelled {
		t.Errorf("JobPhase(1) after cancel = %q, want %q", got, PhaseCancelled)
	}
	if err := s.CancelJob(1); err == nil {
		t.Error("second CancelJob(1) succeeded, want error")
	}
	if err := s.CancelJob(77); err == nil {
		t.Error("CancelJob of unknown job succeeded, want error")
	}
	if got := s.JobPhase(77); got != PhaseUnknown {
		t.Errorf("JobPhase(77) = %q, want PhaseUnknown", got)
	}

	// With the node free again, a short job runs to completion; its ID then
	// stays burned for the rest of the run.
	mustInject(t, s, cpuJob(3, 0, 4, time.Minute))
	mustRunUntil(t, s, 3*time.Hour)
	if got := s.JobPhase(3); got != PhaseCompleted {
		t.Fatalf("JobPhase(3) = %q, want %q", got, PhaseCompleted)
	}
	if err := s.InjectArrival(cpuJob(3, 0, 2, time.Minute)); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("re-inject of completed job: err = %v, want already-exists", err)
	}

	stats := s.Stats()
	if stats.Now != 3*time.Hour || stats.Pending != 0 || stats.Running != 0 ||
		stats.Completed != 1 || stats.Cancelled != 2 {
		t.Errorf("final stats = %+v, want now=3h completed=1 cancelled=2", stats)
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if len(res.Jobs) != 3 {
		t.Errorf("Finish reported %d jobs, want 3", len(res.Jobs))
	}
}

// TestServiceFaultValidation pins InjectFault's request validation: node
// targets are range-checked per kind, straggler factors must sit in (0, 1),
// unknown kinds are rejected, and process-level kills take no node target.
// Every accepted fault must then deliver cleanly with invariants hot.
func TestServiceFaultValidation(t *testing.T) {
	s := newService(t, serviceOptions(), sched.NewFIFO()) // 4 nodes

	bad := []chaos.Fault{
		{Kind: chaos.KindNodeDrain, Node: -1},
		{Kind: chaos.KindNodeCrash, Node: 4},
		{Kind: chaos.KindMembwDark, Node: 99},
		{Kind: chaos.KindStragglerStart, Node: -1},
		{Kind: chaos.KindStragglerStart, Node: 0, Factor: 0},
		{Kind: chaos.KindStragglerStart, Node: 0, Factor: 1},
		{Kind: chaos.Kind(250)},
	}
	for _, f := range bad {
		if err := s.InjectFault(f); err == nil {
			t.Errorf("InjectFault(%+v) succeeded, want error", f)
		}
	}

	good := []chaos.Fault{
		{Kind: chaos.KindNodeDrain, Node: 0},
		{Kind: chaos.KindNodeUndrain, Node: 0},
		{Kind: chaos.KindMembwDark, Node: 1},
		{Kind: chaos.KindMembwRestore, Node: 1},
		{Kind: chaos.KindStragglerStart, Node: 2, Factor: 0.5},
		{Kind: chaos.KindStragglerEnd, Node: 2, Factor: 0.5},
		{Kind: chaos.KindControllerKill},
		{Kind: chaos.KindServeKill},
	}
	for _, f := range good {
		if err := s.InjectFault(f); err != nil {
			t.Errorf("InjectFault(%+v): %v", f, err)
		}
	}
	mustRunUntil(t, s, time.Minute)
	if _, err := s.Finish(); err != nil {
		t.Fatalf("Finish after fault delivery: %v", err)
	}
}

// TestServiceCrashSendsJobToRetry crashes the only node under a running job:
// the job must surface as PhaseRetrying while it waits out its backoff, its
// ID must stay burned, and cancelling it mid-backoff must stick.
func TestServiceCrashSendsJobToRetry(t *testing.T) {
	opts := serviceOptions()
	opts.Cluster.Nodes = 1
	s := newService(t, opts, sched.NewFIFO())

	mustInject(t, s, cpuJob(1, 0, 4, 10*time.Hour))
	mustRunUntil(t, s, time.Minute)
	if got := s.JobPhase(1); got != PhaseRunning {
		t.Fatalf("JobPhase(1) = %q, want %q", got, PhaseRunning)
	}
	if err := s.InjectFault(chaos.Fault{Kind: chaos.KindNodeCrash, Node: 0}); err != nil {
		t.Fatalf("InjectFault(crash): %v", err)
	}
	// The crash is queued at now; one more second of virtual time delivers
	// it, and the retry backoff (a minute at minimum) keeps the killed job
	// in PhaseRetrying well past that.
	mustRunUntil(t, s, time.Minute+time.Second)
	if got := s.JobPhase(1); got != PhaseRetrying {
		t.Fatalf("JobPhase(1) after crash = %q, want %q", got, PhaseRetrying)
	}
	if err := s.InjectArrival(cpuJob(1, 0, 2, time.Minute)); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("re-inject of retrying job: err = %v, want already-exists", err)
	}
	if err := s.CancelJob(1); err != nil {
		t.Fatalf("CancelJob(retrying 1): %v", err)
	}
	if got := s.JobPhase(1); got != PhaseCancelled {
		t.Errorf("JobPhase(1) after cancel = %q, want %q", got, PhaseCancelled)
	}
	if got := s.Stats(); got.Retrying != 0 || got.Cancelled != 1 {
		t.Errorf("stats after cancelling retrying job = %+v, want retrying=0 cancelled=1", got)
	}
}

// TestServiceCancelQueuedNeedsCanceller pins the deterministic rejection when
// the backing scheduler cannot remove queued jobs: DRF does not implement
// sched.Canceller, so cancelling a pending job must fail without mutating it.
func TestServiceCancelQueuedNeedsCanceller(t *testing.T) {
	opts := serviceOptions()
	opts.Cluster.Nodes = 1
	d, err := sched.NewDRF(opts.Cluster.TotalNodes()*opts.Cluster.CoresPerNode,
		opts.Cluster.TotalNodes()*opts.Cluster.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, opts, d)

	mustInject(t, s, cpuJob(1, 0, 28, 10*time.Hour))
	mustInject(t, s, cpuJob(2, 0, 28, time.Hour))
	mustRunUntil(t, s, time.Minute)
	if got := s.JobPhase(2); got != PhasePending {
		t.Fatalf("JobPhase(2) = %q, want %q", got, PhasePending)
	}
	if err := s.CancelJob(2); err == nil || !strings.Contains(err.Error(), "cannot cancel queued jobs") {
		t.Fatalf("CancelJob under DRF: err = %v, want cannot-cancel rejection", err)
	}
	if got := s.JobPhase(2); got != PhasePending {
		t.Errorf("JobPhase(2) after rejected cancel = %q, want still %q", got, PhasePending)
	}
}

// TestServiceRunUntilSplitBitIdentical is the documented RunUntil contract:
// the event stream, not the call boundaries, determines the run, so chopping
// the same horizon into arbitrary RunUntil steps must reproduce the single-
// call result bit for bit.
func TestServiceRunUntilSplitBitIdentical(t *testing.T) {
	run := func(steps []time.Duration) string {
		s := newService(t, serviceOptions(), sched.NewFIFO())
		mustInject(t, s, gpuJob(1, 0, "resnet", 8, 2, 30*time.Minute))
		mustInject(t, s, cpuJob(2, 0, 16, 20*time.Minute))
		mustInject(t, s, hogJob(3, 0, 8, 40, 15*time.Minute))
		for _, at := range steps {
			mustRunUntil(t, s, at)
		}
		res, err := s.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return DumpResult(res)
	}
	whole := run([]time.Duration{2 * time.Hour})
	split := run([]time.Duration{7 * time.Minute, 13 * time.Minute, 41 * time.Minute, 2 * time.Hour})
	if whole != split {
		t.Fatalf("split RunUntil diverged from single call: %s", FirstDiff(whole, split))
	}
}
