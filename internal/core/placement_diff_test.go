package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/history"
	"github.com/coda-repro/coda/internal/job"
)

// This file pins the index-backed GPU probe (MultiArray.pickNodes) to the
// linear scan it replaced. referencePickNodes is a verbatim port of that
// scan: visit every GPU node in sub-array preference order, sort all
// feasible candidates, take the first Request.Nodes. Its pool headroom is
// recounted from the draw maps, so the budget's running sums are checked
// along the way. Across a thousand seeded random states and the fuzz
// corpus, both probes must return the same nodes in the same order.

// probeEnv serves a real cluster to the probe.
type probeEnv struct {
	scriptedEnv
	c *cluster.Cluster
}

func (e *probeEnv) Cluster() *cluster.Cluster { return e.c }

// referenceHeadroom recounts a budget's pools from its draw maps.
func referenceHeadroom(b *nodeBudget) (reserveFree, sharedFree, borrowed int) {
	reserveUsed, sharedUsed := 0, 0
	for _, d := range b.gpuDraws {
		reserveUsed += d.fromReserve
		sharedUsed += d.fromShared
	}
	for _, d := range b.cpuDraws {
		reserveUsed += d.fromReserve
		sharedUsed += d.fromShared
		borrowed += d.fromReserve
	}
	return b.reserve - reserveUsed, b.cores - b.reserve - sharedUsed, borrowed
}

// referencePickNodes is the pre-index probe of startGPUAt.
func referencePickNodes(m *MultiArray, j *job.Job, cores int, withPreempt bool) []int {
	gpus := j.Request.GPUsPerNode()
	fourG, oneG := idRange(0, m.fourGNodes), idRange(m.fourGNodes, m.gpuNodes)
	var order []int
	if j.Request.GPUs >= LargeJobGPUs {
		order = append(append(order, fourG...), oneG...)
	} else {
		order = append(append(order, oneG...), fourG...)
	}
	ownLen := len(oneG)
	if j.Request.GPUs >= LargeJobGPUs {
		ownLen = len(fourG)
	}
	type candidate struct{ nid, freeGPUs, pref int }
	var cands []candidate
	for pref, nid := range order {
		n, err := m.env.Cluster().Node(nid)
		if err != nil || n.FreeGPUs() < gpus {
			continue
		}
		reserveFree, sharedFree, borrowed := referenceHeadroom(m.budgets[nid])
		headroom := reserveFree + sharedFree
		if withPreempt {
			headroom += borrowed
		}
		if headroom < cores {
			continue
		}
		cands = append(cands, candidate{nid: nid, freeGPUs: n.FreeGPUs(), pref: pref})
	}
	if len(cands) < j.Request.Nodes {
		return nil
	}
	breaksHole := func(c candidate) bool {
		return gpus < LargeJobGPUs &&
			c.freeGPUs >= LargeJobGPUs && c.freeGPUs-gpus < LargeJobGPUs
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		aOwn, bOwn := a.pref < ownLen, b.pref < ownLen
		if aOwn != bOwn {
			if aOwn {
				return -1
			}
			return 1
		}
		aBreak, bBreak := breaksHole(a), breaksHole(b)
		if aBreak != bBreak {
			if bBreak {
				return -1
			}
			return 1
		}
		if a.freeGPUs != b.freeGPUs {
			return a.freeGPUs - b.freeGPUs
		}
		return a.nid - b.nid
	})
	nodes := make([]int, 0, j.Request.Nodes)
	for _, c := range cands[:j.Request.Nodes] {
		nodes = append(nodes, c.nid)
	}
	return nodes
}

// probeState is one randomized multi-array state over a live cluster.
type probeState struct {
	m          *MultiArray
	c          *cluster.Cluster
	rebalanced bool // the sub-array split came from Rebalance
	unavail    int  // draining or down nodes
	cpuOnly    int  // CPU-only nodes
}

// randomProbeState draws a cluster shape, a multi-array split (optionally
// re-split by Rebalance), a load of budget-charged jobs mirrored onto the
// cluster, and a few draining or down nodes. pick(n) must return a value
// in [0, n).
func randomProbeState(t *testing.T, pick func(n int) int) probeState {
	t.Helper()
	cc := cluster.Config{
		Nodes:        1 + pick(16),
		CPUOnlyNodes: pick(4),
		CoresPerNode: 2 + pick(31),
		GPUsPerNode:  []int{1, 2, 4, 5, 8}[pick(5)],
		BandwidthGBs: 100,
		PCIeGBs:      16,
	}
	c, err := cluster.New(cc)
	if err != nil {
		t.Fatal(err)
	}
	acfg := ArrayConfig{ReserveCores: pick(cc.CoresPerNode + 1), FourGNodeFraction: float64(pick(11)) / 10}
	m, err := NewMultiArrayForCluster(acfg, cc)
	if err != nil {
		t.Fatal(err)
	}
	m.Bind(&probeEnv{c: c})
	st := probeState{m: m, c: c, cpuOnly: cc.CPUOnlyNodes}
	if pick(2) == 0 {
		m.Rebalance(history.Stats{
			GPUJobs:         1,
			MeanCoresPerGPU: 0.5 + float64(pick(8)),
			LargeGPUShare:   float64(pick(11)) / 10,
		}, cc.GPUsPerNode)
		st.rebalanced = true
	}

	total := cc.TotalNodes()
	loads := pick(4 * total)
	for id := job.ID(1); id <= job.ID(loads); id++ {
		nid := pick(total)
		cores := 1 + pick(cc.CoresPerNode)
		b := m.budgets[nid]
		alloc := job.Allocation{NodeIDs: []int{nid}, CPUCores: cores}
		if nid < cc.Nodes && pick(2) == 0 {
			alloc.GPUs = 1 + pick(cc.GPUsPerNode)
			if !b.chargeGPU(id, cores) {
				continue
			}
		} else if !b.chargeCPU(id, cores, pick(2) == 0) {
			continue
		}
		if err := c.Allocate(id, alloc); err != nil {
			b.release(id)
		}
	}
	for nid := 0; nid < total; nid++ {
		switch pick(12) {
		case 0:
			// A crash releases resident jobs first, as the simulator does.
			n, err := c.Node(nid)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range n.Jobs() {
				if err := c.Release(id); err != nil {
					t.Fatal(err)
				}
				m.budgets[nid].release(id)
			}
			if err := c.SetNodeState(nid, cluster.NodeDown); err != nil {
				t.Fatal(err)
			}
			st.unavail++
		case 1:
			if err := c.SetNodeState(nid, cluster.NodeDraining); err != nil {
				t.Fatal(err)
			}
			st.unavail++
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("random state breaks budget invariants: %v", err)
	}
	return st
}

// randomProbeRequest draws a training job of 1, 2, 4 or 8 GPUs over 1-8
// nodes (GPUsPerNode may round to zero) and a per-node core count.
func randomProbeRequest(st probeState, pick func(n int) int) (*job.Job, int) {
	j := &job.Job{
		ID: 1 << 20, Kind: job.KindGPUTraining, Tenant: 1,
		Request: job.Request{GPUs: []int{1, 2, 4, 8}[pick(4)], Nodes: 1 + pick(8)},
	}
	return j, 1 + pick(st.m.budgets[0].cores)
}

// diffProbe runs both probes on one request, with and without preemption,
// and reports whether the probe placed the job only by counting
// preemptible cores.
func diffProbe(t *testing.T, st probeState, j *job.Job, cores int) (placed, onlyWithPreempt bool) {
	t.Helper()
	var got [2][]int
	for i, withPreempt := range []bool{false, true} {
		before := st.c.PlacementQueries()
		got[i] = st.m.pickNodes(j, cores, withPreempt)
		if q := st.c.PlacementQueries() - before; q != 1 {
			t.Fatalf("pickNodes noted %d placement queries, want 1", q)
		}
		want := referencePickNodes(st.m, j, cores, withPreempt)
		if !slices.Equal(got[i], want) || (got[i] == nil) != (want == nil) {
			t.Fatalf("request %+v at %d cores (withPreempt %v, 4-GPU sub-array [0,%d) of %d): probe %v, reference %v",
				j.Request, cores, withPreempt, st.m.fourGNodes, st.m.gpuNodes, got[i], want)
		}
	}
	return got[0] != nil || got[1] != nil, got[0] == nil && got[1] != nil
}

// TestGPUPlacementMatchesReference diffs the probe against the linear
// scan over a thousand seeded states, and checks that the states reach
// the cases that matter: placements that succeed, ones that need
// preemption, rebalanced splits, unavailable and CPU-only nodes.
func TestGPUPlacementMatchesReference(t *testing.T) {
	var placed, preemptOnly, rebalanced, unavail, cpuOnly, multiNode int
	for seed := int64(1); seed <= 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := randomProbeState(t, rng.Intn)
		if st.rebalanced {
			rebalanced++
		}
		if st.unavail > 0 {
			unavail++
		}
		if st.cpuOnly > 0 {
			cpuOnly++
		}
		for q := 0; q < 6; q++ {
			j, cores := randomProbeRequest(st, rng.Intn)
			ok, onlyPreempt := diffProbe(t, st, j, cores)
			if ok {
				placed++
				if j.Request.Nodes > 1 {
					multiNode++
				}
			}
			if onlyPreempt {
				preemptOnly++
			}
		}
	}
	t.Logf("placed %d, preemption-only %d, multi-node %d; states: rebalanced %d, unavailable nodes %d, CPU-only nodes %d",
		placed, preemptOnly, multiNode, rebalanced, unavail, cpuOnly)
	for _, c := range []struct {
		name string
		n    int
	}{
		{"placed", placed}, {"preemption-only", preemptOnly}, {"multi-node", multiNode},
		{"rebalanced", rebalanced}, {"unavailable", unavail}, {"CPU-only", cpuOnly},
	} {
		if c.n < 20 {
			t.Errorf("only %d %s cases; the generator no longer covers them", c.n, c.name)
		}
	}
}

// FuzzGPUPlacement drives the same differential check from fuzzer bytes:
// the state and the requests are drawn from data, zeros once it runs out.
func FuzzGPUPlacement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 20, 2, 5, 3, 0, 40, 1, 1, 9, 3, 0, 1, 2, 12, 0, 1, 3, 2})
	f.Add([]byte{15, 3, 26, 4, 14, 10, 1, 7, 9, 60, 5, 2, 0, 3, 1, 0, 8, 2, 1, 0, 3, 7, 4})
	f.Add([]byte{3, 0, 12, 1, 2, 0, 1, 3, 5, 30, 2, 11, 0, 0, 1, 1, 2, 1, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		st := randomProbeState(t, pick)
		for q := 0; q < 4; q++ {
			j, cores := randomProbeRequest(st, pick)
			diffProbe(t, st, j, cores)
		}
	})
}
