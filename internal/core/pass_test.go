package core

import (
	"slices"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/history"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/membw"
)

// TestPreemptedCPUJobRestartedInSamePass: a CPU job preempted in drainGPU
// and restarted by the same pass's drainCPU lands in the start journal
// although it already ran before the pass. It must keep its first-start
// time and start no tuning session; the training job that preempted it
// does start one.
func TestPreemptedCPUJobRestartedInSamePass(t *testing.T) {
	opts := testOptions()
	opts.Cluster.Nodes = 2
	opts.Service = true
	cfg := DefaultConfig()
	cfg.Array.ReserveCores = 14 // 14 reserve + 14 shared cores per node
	cfg.Array.FourGNodeFraction = 0.5
	cfg.RebalanceEvery = 0
	cfg.DisableEliminator = true
	s := newCoda(t, cfg, opts)
	// Seed Nstart without SetHistory (which would rebalance the split):
	// tenant 1's CV jobs start at 0.2 cores per GPU, its NLP jobs at 14.
	log := history.NewLog()
	for _, r := range []history.Record{
		{JobID: 100, Tenant: 1, Kind: job.KindGPUTraining, Category: job.CategoryCV, CPUCores: 1, GPUs: 5, Nodes: 1},
		{JobID: 101, Tenant: 1, Kind: job.KindGPUTraining, Category: job.CategoryNLP, CPUCores: 14, GPUs: 1, Nodes: 1},
	} {
		if err := log.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	s.log, s.alloc.log = log, log
	simulator := newSim(t, opts, s, nil)
	inject := func(j *job.Job) {
		t.Helper()
		if err := simulator.InjectArrival(j); err != nil {
			t.Fatalf("inject job %d: %v", j.ID, err)
		}
	}
	// Node 0 (4-GPU sub-array) loses all its GPUs to a 1-core large job
	// and keeps 27 free cores; the CPU job lands on node 1 with 14 shared
	// + 6 borrowed reserve cores.
	inject(gpuJob(1, 0, "resnet50", 2, 5, 1, 10*time.Hour))
	inject(cpuJob(2, 0, 2, 20, 10*time.Hour))
	if err := simulator.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	victim, ok := s.Arrays().RunningAlloc(2)
	if !ok || victim.NodeIDs[0] != 1 || s.Arrays().budgets[1].borrowed != 6 {
		t.Fatalf("setup: CPU job alloc %+v (running %v), node 1 borrowed %d; want node 1 borrowing 6",
			victim, ok, s.Arrays().budgets[1].borrowed)
	}
	firstStart, ok := s.started[2]
	if !ok {
		t.Fatal("setup: no first-start time for the CPU job")
	}

	// A 1-GPU job starting at 14 cores fits only node 1, and only by
	// reclaiming the borrowed cores; the victim then restarts on node 0 in
	// drainCPU. Off the 30 s tick and 1 min sample grids, and before any
	// profiling step resizes job 1, the arrival is the only event at its
	// instant, so one pass handles it.
	arrival := 7 * time.Second
	if err := simulator.RunUntil(arrival); err != nil {
		t.Fatal(err)
	}
	inject(gpuJob(3, arrival, "transformer", 2, 1, 1, time.Hour))
	if err := simulator.RunUntil(arrival); err != nil {
		t.Fatal(err)
	}
	if got := s.Arrays().Preemptions(); got != 1 {
		t.Fatalf("preemptions = %d, want 1", got)
	}
	if alloc, ok := s.Arrays().RunningAlloc(2); !ok || alloc.NodeIDs[0] != 0 {
		t.Fatalf("victim alloc %+v (running %v), want a restart on node 0", alloc, ok)
	}
	if got := s.Arrays().startedLog; !slices.Equal(got, []job.ID{2, 3}) {
		t.Fatalf("last pass started %v, want [2 3]: the restart and the training job in one pass", got)
	}
	if got := s.started[2]; got != firstStart {
		t.Errorf("victim first-start time moved from %v to %v", firstStart, got)
	}
	if got := s.started[3]; got != arrival {
		t.Errorf("training job first-start time = %v, want %v", got, arrival)
	}
	if _, ok := s.alloc.tuning[2]; ok {
		t.Error("the restarted CPU job got a tuning session")
	}
	if _, ok := s.alloc.tuning[3]; !ok {
		t.Error("the newly placed training job got no tuning session")
	}
}

// TestStartJournalDropsStoppedJobs: journal entries for jobs no longer
// running are dropped, and the rest come back sorted and deduplicated.
func TestStartJournalDropsStoppedJobs(t *testing.T) {
	m, err := NewMultiArray(DefaultArrayConfig(), 2, 28, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []job.ID{3, 5} {
		m.running[id] = &runInfo{j: &job.Job{ID: id}}
	}
	m.startedLog = append(m.startedLog, 5, 9, 3, 5)
	if got := m.takeStarted(); !slices.Equal(got, []job.ID{3, 5}) {
		t.Errorf("takeStarted = %v, want [3 5]", got)
	}
	m.resetStarted()
	if got := m.takeStarted(); len(got) != 0 {
		t.Errorf("takeStarted after reset = %v, want empty", got)
	}
}

// gateEnv serves real bandwidth meters over a real cluster and records
// meter reads and unthrottle calls.
type gateEnv struct {
	probeEnv
	mon         *membw.Monitor
	meterReads  map[int]int
	unthrottled []job.ID
}

func (e *gateEnv) Meter(nid int) (*membw.Meter, error) {
	e.meterReads[nid]++
	return e.mon.Node(nid)
}

func (e *gateEnv) UnthrottleJob(id job.ID) error {
	e.unthrottled = append(e.unthrottled, id)
	return nil
}

// TestEliminatorRelaxesWhereThrottledJobRunsNow pins the semantics the
// relax gate must keep. A throttled CPU job preempted by a reclaim keeps
// its throttled entry (reclaimNode does not call Forget) and follows its
// ID to wherever it restarts. relax must still find it on its new node;
// the node where the throttle was applied is no longer a host and is
// skipped without a second meter read.
func TestEliminatorRelaxesWhereThrottledJobRunsNow(t *testing.T) {
	const nodes = 3
	c := cluster.MustNew(cluster.Config{Nodes: nodes, CoresPerNode: 28, GPUsPerNode: 4, BandwidthGBs: 100, PCIeGBs: 16})
	mon, err := membw.NewMonitor(nodes, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	env := &gateEnv{probeEnv: probeEnv{c: c}, mon: mon, meterReads: make(map[int]int)}
	m, err := NewMultiArray(DefaultArrayConfig(), nodes, 28, 4)
	if err != nil {
		t.Fatal(err)
	}
	m.Bind(env)
	e := NewEliminator(DefaultEliminatorConfig(), nil, m)
	e.Bind(env)

	// Job 7 was throttled on node 0, then preempted and restarted on node
	// 2; job 9, never throttled, now runs on node 0. Both nodes are calm.
	e.throttled[7] = intervention{capGBs: 3}
	m.running[7] = &runInfo{j: &job.Job{ID: 7, Kind: job.KindCPU}, alloc: job.Allocation{NodeIDs: []int{2}, CPUCores: 4}}
	m.running[9] = &runInfo{j: &job.Job{ID: 9, Kind: job.KindCPU}, alloc: job.Allocation{NodeIDs: []int{0}, CPUCores: 4}}
	for _, r := range []struct {
		nid int
		id  job.ID
	}{{0, 9}, {2, 7}} {
		meter, err := mon.Node(r.nid)
		if err != nil {
			t.Fatal(err)
		}
		if err := meter.Register(r.id, 10, true); err != nil {
			t.Fatal(err)
		}
	}

	e.Tick()
	if !slices.Equal(env.unthrottled, []job.ID{7}) {
		t.Errorf("unthrottled %v, want [7]", env.unthrottled)
	}
	if _, ok := e.throttled[7]; ok {
		t.Error("job 7's intervention survived the relax on its new node")
	}
	// Every node is read once by checkNode; only node 2 hosts a throttled
	// job, so only it is read again by relax.
	for nid, want := range []int{1, 1, 2} {
		if got := env.meterReads[nid]; got != want {
			t.Errorf("node %d meter reads = %d, want %d", nid, got, want)
		}
	}
}
