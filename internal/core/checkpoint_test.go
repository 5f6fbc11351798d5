package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sim"
)

// midRunScheduler drives a service-mode simulator to a busy midpoint — jobs
// running with budget draws, a tuning session in flight, queued work, and at
// least one completion in the history log — and returns the live scheduler.
func midRunScheduler(t *testing.T, cfg Config, opts sim.Options) *Scheduler {
	t.Helper()
	opts.Service = true
	s := newCoda(t, cfg, opts)
	simulator := newSim(t, opts, s, nil)
	inject := func(j *job.Job) {
		t.Helper()
		if err := simulator.InjectArrival(j); err != nil {
			t.Fatalf("inject job %d: %v", j.ID, err)
		}
	}
	inject(gpuJob(1, 0, "resnet50", 8, 4, 1, 4*time.Hour))
	inject(gpuJob(2, 0, "bat", 6, 1, 1, 3*time.Hour))
	inject(cpuJob(3, 0, 5, 4, 5*time.Minute)) // completes before the midpoint
	if err := simulator.RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	inject(cpuJob(4, 0, 6, 16, 2*time.Hour))
	inject(hogJob(5, 0, 8, 60, 2*time.Hour))
	if err := simulator.RunUntil(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCheckpointRoundTripMidRun is the serialization fidelity check for the
// full scheduler checkpoint: a checkpoint taken mid-run, restored into a
// freshly constructed scheduler of the same shape, must re-serialize to the
// identical bytes — history log, budget draws, sub-array split, fair-share
// accumulators, queues, allocator tuning state and eliminator interventions
// all survive the round trip verbatim.
func TestCheckpointRoundTripMidRun(t *testing.T) {
	cfg := DefaultConfig()
	opts := testOptions()
	s := midRunScheduler(t, cfg, opts)

	blob, err := s.CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}
	fresh := newCoda(t, cfg, opts)
	if err := fresh.RestoreCheckpoint(blob); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	again, err := fresh.CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState after restore: %v", err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatalf("checkpoint round trip not byte-identical:\n%s", sim.FirstDiff(string(blob), string(again)))
	}
	if err := fresh.Arrays().CheckInvariants(); err != nil {
		t.Fatalf("multi-array invariants after restore: %v", err)
	}
	// The running pool sums are not serialized; restore must rebuild them
	// through the same accounting the live run used.
	inUse := 0
	for nid, live := range s.Arrays().budgets {
		got := fresh.Arrays().budgets[nid]
		if got.reserveUsed != live.reserveUsed || got.sharedUsed != live.sharedUsed || got.borrowed != live.borrowed {
			t.Errorf("node %d sums after restore (reserve %d, shared %d, borrowed %d), live run (%d, %d, %d)",
				nid, got.reserveUsed, got.sharedUsed, got.borrowed, live.reserveUsed, live.sharedUsed, live.borrowed)
		}
		inUse += live.reserveUsed + live.sharedUsed
	}
	if inUse == 0 {
		t.Fatal("the midpoint has no cores in use; the sums check proves nothing")
	}
}

// TestRestoreCheckpointRejects pins the restore-time validation: corrupt
// JSON, restoring into a scheduler that has already run, an eliminator
// configuration mismatch, and a cluster-shape mismatch are all deterministic
// errors instead of silent state corruption.
func TestRestoreCheckpointRejects(t *testing.T) {
	cfg := DefaultConfig()
	opts := testOptions()
	blob, err := midRunScheduler(t, cfg, opts).CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}

	if err := newCoda(t, cfg, opts).RestoreCheckpoint([]byte("{not json")); err == nil {
		t.Error("restore of corrupt JSON succeeded, want error")
	}

	_, used := runCoda(t, cfg, opts, []*job.Job{cpuJob(1, 0, 2, 4, time.Minute)})
	if err := used.RestoreCheckpoint(blob); err == nil {
		t.Error("restore into a non-fresh scheduler succeeded, want error")
	}

	noElim := cfg
	noElim.DisableEliminator = true
	if err := newCoda(t, noElim, opts).RestoreCheckpoint(blob); err == nil {
		t.Error("restore across eliminator config mismatch succeeded, want error")
	}

	narrow, err := New(cfg, 2, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.RestoreCheckpoint(blob); err == nil {
		t.Error("restore across cluster-shape mismatch succeeded, want error")
	}

	// The sub-arrays must be the contiguous ID ranges the GPU probe reads
	// membership from: a permuted split, or one missing a node, is refused.
	var st schedulerState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	fourG, oneG := st.Arrays.FourG, st.Arrays.OneG
	if len(fourG) == 0 || len(oneG) == 0 {
		t.Fatalf("mid-run split 4-GPU %v, 1-GPU %v: want both sub-arrays non-empty", fourG, oneG)
	}
	for _, c := range []struct {
		name        string
		fourG, oneG []int
	}{
		{"untouched", fourG, oneG}, // control: the re-encoded checkpoint restores
		{"permuted", append([]int{oneG[0]}, fourG[1:]...), append([]int{fourG[0]}, oneG[1:]...)},
		{"missing-node", fourG, oneG[:len(oneG)-1]},
	} {
		bad := st
		bad.Arrays.FourG, bad.Arrays.OneG = c.fourG, c.oneG
		data, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		err = newCoda(t, cfg, opts).RestoreCheckpoint(data)
		if c.name == "untouched" && err != nil {
			t.Fatalf("restore of the re-encoded checkpoint: %v", err)
		}
		if c.name != "untouched" && err == nil {
			t.Errorf("restore of a %s sub-array split (4-GPU %v, 1-GPU %v) succeeded, want error", c.name, c.fourG, c.oneG)
		}
	}
}
