package sim

import (
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
)

// multiNodeGPUJob builds a 2-node training job.
func multiNodeGPUJob(id job.ID, model string, coresPerNode int, work time.Duration) *job.Job {
	j := gpuJob(id, 0, model, coresPerNode, 8, work)
	j.Request.Nodes = 2
	return j
}

// TestMultiNodeStragglerContention: a hog on ONE of a 2-node job's nodes
// slows the whole job (gradient sync waits for the slowest worker).
func TestMultiNodeStragglerContention(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 2

	clean := mustRun(t, opts, sched.NewFIFO(),
		[]*job.Job{multiNodeGPUJob(1, "bat", 2, time.Hour)})

	// The hog lands on whichever node has cores; with the 2-node job on
	// both nodes, it co-locates with one of them.
	contended := mustRun(t, opts, sched.NewFIFO(), []*job.Job{
		multiNodeGPUJob(1, "bat", 2, time.Hour),
		hogJob(2, 0, 16, 130, 4*time.Hour),
	})
	if contended.Jobs[1].EndToEnd() <= clean.Jobs[1].EndToEnd() {
		t.Errorf("straggler contention had no effect: %v vs %v",
			contended.Jobs[1].EndToEnd(), clean.Jobs[1].EndToEnd())
	}
}

// resizeBandwidthScheduler shrinks a GPU job and reads the meter.
type resizeBandwidthScheduler struct {
	envScheduler
	done      bool
	before    float64
	after     float64
	resizeErr error
}

func (r *resizeBandwidthScheduler) Tick() {
	if r.done {
		return
	}
	r.done = true
	meter, err := r.env.Meter(0)
	if err != nil {
		r.resizeErr = err
		return
	}
	r.before = meter.Total()
	if err := r.env.ResizeJob(1, 1); err != nil {
		r.resizeErr = err
		return
	}
	r.after = meter.Total()
}

// TestResizeUpdatesBandwidthDemand: shrinking a training job's cores slows
// its data preparation and must shrink its registered bandwidth demand.
func TestResizeUpdatesBandwidthDemand(t *testing.T) {
	rs := &resizeBandwidthScheduler{envScheduler: envScheduler{auto: true}}
	jobs := []*job.Job{gpuJob(1, 0, "alexnet", 6, 1, 2*time.Hour)}
	simulator := newSim(t, testOptions(), rs, jobs)
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}
	if rs.resizeErr != nil {
		t.Fatal(rs.resizeErr)
	}
	if rs.before <= 0 {
		t.Fatal("no bandwidth registered before resize")
	}
	if rs.after >= rs.before {
		t.Errorf("bandwidth demand did not shrink: %.1f -> %.1f GB/s", rs.before, rs.after)
	}
}

// throttleCycleScheduler throttles the hog then unthrottles it.
type throttleCycleScheduler struct {
	envScheduler
	step int
	errs []error
}

func (s *throttleCycleScheduler) Tick() {
	s.step++
	switch s.step {
	case 1:
		s.errs = append(s.errs, s.env.ThrottleJob(2, 5))
	case 3:
		s.errs = append(s.errs, s.env.UnthrottleJob(2))
	}
}

// TestUnthrottleRestoresSpeed: a throttled hog released early finishes
// much sooner than one throttled for its whole run.
func TestUnthrottleRestoresSpeed(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 1
	mk := func() []*job.Job {
		return []*job.Job{hogJob(2, 0, 16, 80, time.Hour)}
	}
	cycle := &throttleCycleScheduler{envScheduler: envScheduler{auto: true}}
	simulator := newSim(t, opts, cycle, mk())
	released, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cycle.errs {
		if e != nil {
			t.Fatal(e)
		}
	}

	hold := &throttleOnTick{envScheduler: envScheduler{auto: true}}
	simulator = newSim(t, opts, hold, mk())
	heldRes, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if released.Jobs[2].EndToEnd() >= heldRes.Jobs[2].EndToEnd() {
		t.Errorf("unthrottle did not speed the hog up: released %v vs held %v",
			released.Jobs[2].EndToEnd(), heldRes.Jobs[2].EndToEnd())
	}
}

// TestCPUJobHalvedCoresRunsSlower: the eliminator's MBA-less fallback
// semantics at the simulator level.
func TestCPUJobHalvedCoresRunsSlower(t *testing.T) {
	full := mustRun(t, testOptions(), &envScheduler{auto: true},
		[]*job.Job{cpuJob(1, 0, 8, time.Hour)})

	halver := &resizeOnTick{envScheduler: envScheduler{auto: true}, target: 1, cores: 4}
	simulator := newSim(t, testOptions(), halver, []*job.Job{cpuJob(1, 0, 8, time.Hour)})
	halved, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if halver.err != nil {
		t.Fatal(halver.err)
	}
	// Half the cores -> roughly half the speed -> roughly twice the time.
	ratio := float64(halved.Jobs[1].EndToEnd()) / float64(full.Jobs[1].EndToEnd())
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("halved-core slowdown = %.2fx, want ~2x", ratio)
	}
}
