// Generality example (§VI-G): run CODA on a heterogeneous private cluster
// composed of GPU nodes plus dedicated CPU-only nodes. The multi-array
// scheduler keeps the two job classes from disturbing each other: CPU jobs
// flow to the CPU nodes' budget while training jobs keep the GPU nodes'
// reserve.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	opts := sim.DefaultOptions()
	opts.Cluster.Nodes = 2        // GPU nodes (IDs 0-1)
	opts.Cluster.CPUOnlyNodes = 2 // CPU nodes (IDs 2-3)

	jobs := []*job.Job{
		{
			ID: 1, Kind: job.KindGPUTraining, Tenant: 1,
			Category: job.CategoryCV, Model: "inception3",
			Request: job.Request{CPUCores: 2, GPUs: 2, Nodes: 1},
			Work:    time.Hour,
		},
		// Heavy CPU jobs that would crowd a GPU node's shared pool: the
		// CPU-only nodes absorb them.
		{
			ID: 2, Kind: job.KindCPU, Tenant: 2,
			Request: job.Request{CPUCores: 24, Nodes: 1},
			Work:    2 * time.Hour, Bandwidth: 6,
		},
		{
			ID: 3, Kind: job.KindCPU, Tenant: 3,
			Request: job.Request{CPUCores: 24, Nodes: 1},
			Arrival: time.Minute,
			Work:    2 * time.Hour, Bandwidth: 6,
		},
	}

	spec := sim.RunSpec{Name: "generality", Options: opts, Jobs: jobs, NewScheduler: func() (sched.Scheduler, error) {
		return core.NewForCluster(core.DefaultConfig(), opts.Cluster)
	}}
	res, err := spec.Run()
	if err != nil {
		return err
	}

	fmt.Println("cluster: 2 GPU nodes (0-1) + 2 CPU-only nodes (2-3)")
	fmt.Println("\njob  kind          queue  end-to-end")
	for id := job.ID(1); id <= 3; id++ {
		js := res.Jobs[id]
		fmt.Printf("%-4d %-13s %-6s %s\n", id, js.Job.Kind,
			js.QueueTime().Truncate(time.Second),
			js.EndToEnd().Truncate(time.Second))
	}
	fmt.Println("\nall three jobs ran immediately: the 24-core CPU jobs landed on the")
	fmt.Println("CPU-only nodes, leaving the GPU nodes' cores for the training job")
	return nil
}
