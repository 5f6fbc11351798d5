package experiments

import (
	"fmt"
	"time"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/runner"
	"github.com/coda-repro/coda/internal/sim"
)

// ScalePoint is one cluster size of the scale curve.
type ScalePoint struct {
	// Nodes is the cluster size of this point.
	Nodes int
	// GPUUtil is the mean GPU utilization; GPUImmediate and CPUWithin3Min
	// are the queueing milestones; MakeSpan is the total simulated time.
	GPUUtil, GPUImmediate, CPUWithin3Min float64
	MakeSpan                             time.Duration
}

// ScaleCurveMatrix declares the what-if cluster-size sweep: the base
// scale's trace (fixed load) replayed under CODA at each node count, one
// cell per entry of nodeCounts. Shrinking the cluster under fixed load
// raises utilization and queueing; growing it does the opposite.
func ScaleCurveMatrix(base Scale, nodeCounts []int) (*runner.Matrix, error) {
	if len(nodeCounts) == 0 {
		return nil, fmt.Errorf("experiments: scale curve needs at least one node count")
	}
	// The trace does not depend on the cluster shape: every cell streams
	// the same seeded config, so the sweep never materializes the jobs
	// even once.
	cfg, err := base.traceConfig()
	if err != nil {
		return nil, err
	}
	m := &runner.Matrix{}
	for _, nodes := range nodeCounts {
		if nodes <= 0 {
			return nil, fmt.Errorf("experiments: scale curve node count %d must be positive", nodes)
		}
		sc := base
		sc.Nodes = nodes
		opts := sc.simOptions()
		m.Add(sim.RunSpec{
			Name:         fmt.Sprintf("nodes=%d", nodes),
			Options:      opts,
			Trace:        &cfg,
			NewScheduler: newCODA(core.DefaultConfig(), opts.Cluster),
		})
	}
	return m, nil
}

// ScaleCurve executes the cluster-size sweep and reduces each run to its
// headline numbers, in nodeCounts order.
func ScaleCurve(base Scale, nodeCounts []int) ([]ScalePoint, error) {
	m, err := ScaleCurveMatrix(base, nodeCounts)
	if err != nil {
		return nil, err
	}
	results, err := runMatrix(m)
	if err != nil {
		return nil, err
	}
	pts := make([]ScalePoint, 0, len(results))
	for i, res := range results {
		pts = append(pts, ScalePoint{
			Nodes:         nodeCounts[i],
			GPUUtil:       sim.WindowMean(&res.GPUUtilSeries, res.LastArrival),
			GPUImmediate:  res.GPUQueue.FractionAtMost(0),
			CPUWithin3Min: res.CPUQueue.FractionAtMost(3 * time.Minute),
			MakeSpan:      res.EndTime,
		})
	}
	return pts, nil
}
