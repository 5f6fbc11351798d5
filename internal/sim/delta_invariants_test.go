package sim

import (
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/chaos"
	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

// chaoticRun runs a chaotic CODA simulation with the given invariant
// cadence and returns its dump.
func chaoticRun(t *testing.T, every int) string {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.CPUJobs, cfg.GPUJobs = 100, 30
	cfg.Duration = 24 * time.Hour
	cfg.Seed = 42
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Seed = 7
	opts.InvariantsEvery = every
	opts.Faults = chaos.Plan{
		Seed:              99,
		Horizon:           24 * time.Hour,
		NodeCrashesPerDay: 6,
		StragglersPerDay:  4,
		MembwDropsPerDay:  4,
		JobFailureProb:    0.05,
	}
	s, err := core.New(core.DefaultConfig(), opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	return DumpResult(mustRun(t, opts, s, jobs))
}

// TestDeltaInvariantCadenceMatchesFullCheck: switching from a full audit
// after every event (InvariantsEvery=0) to the O(Δ) delta check with a
// periodic audit must neither reject a healthy chaotic run nor change one
// bit of its result — checking is observation, never behavior.
func TestDeltaInvariantCadenceMatchesFullCheck(t *testing.T) {
	full := chaoticRun(t, 0)
	for _, every := range []int{1, 7, 1000} {
		if delta := chaoticRun(t, every); delta != full {
			t.Fatalf("InvariantsEvery=%d changed the run: %s", every, FirstDiff(full, delta))
		}
	}
}

// TestDeltaCheckDetectsTouchedCorruption plants corruptions in state the
// current event touched and checks the O(Δ) path reports them.
func TestDeltaCheckDetectsTouchedCorruption(t *testing.T) {
	opts := testOptions()
	opts.InvariantsEvery = 1 << 30 // keep the full audit out of the way
	t.Run("node cache corruption", func(t *testing.T) {
		s := newSim(t, opts, sched.NewFIFO(), nil)
		// Drain node 0 so it lands in the touched journal, then corrupt its
		// cpu-core cache: the delta check must cross-check it.
		if err := s.cluster.SetNodeState(0, cluster.NodeDraining); err != nil {
			t.Fatal(err)
		}
		s.cpuCoresOn[0] = 5
		if err := s.checkInvariantsDelta(); err == nil {
			t.Fatal("delta check missed a corrupted cpu-core cache on a touched node")
		}
	})
	t.Run("job state corruption", func(t *testing.T) {
		s := newSim(t, opts, sched.NewFIFO(), nil)
		// A job that is pending and running at once, journaled as touched.
		j := cpuJob(1, 0, 2, time.Hour)
		s.pending[j.ID] = j
		s.running[j.ID] = &runningJob{job: j}
		s.touchJob(j.ID)
		if err := s.checkInvariantsDelta(); err == nil {
			t.Fatal("delta check missed a job that is pending and running simultaneously")
		}
	})
	t.Run("untouched corruption caught by cadence audit", func(t *testing.T) {
		s := newSim(t, opts, sched.NewFIFO(), nil)
		// Corrupt a node WITHOUT touching it: the delta check cannot see it
		// (that is the bargain), but the cadence audit must.
		s.cpuCoresOn[1] = 3
		if err := s.checkInvariantsDelta(); err != nil {
			t.Fatalf("delta check scanned untouched state: %v", err)
		}
		s.opts.InvariantsEvery = 1 // next event triggers the full audit
		if err := s.checkEventInvariants(); err == nil {
			t.Fatal("cadence audit missed a corrupted untouched node")
		}
	})
}
