// Multi-array example: CPU jobs burst and borrow the GPU resource array's
// reserved cores while it is idle; an arriving DNN training job reclaims
// the cores by preempting a borrower, which re-enters the CPU array head
// and finishes later (§V-C).
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
	opts.Cluster.Nodes = 1
	opts.Cluster.CoresPerNode = 12
	opts.Cluster.GPUsPerNode = 2

	cfg := core.DefaultConfig()
	cfg.Array.ReserveCores = 8 // GPU array reserves 8 of 12 cores
	cfg.RebalanceEvery = 0     // keep the split fixed for the demo

	jobs := []*job.Job{
		// A burst of CPU jobs: 12 cores of demand against a 4-core CPU
		// array — two of them must borrow reserved cores.
		{ID: 1, Kind: job.KindCPU, Tenant: 2, Request: job.Request{CPUCores: 4, Nodes: 1}, Work: 4 * time.Hour, Bandwidth: 1},
		{ID: 2, Kind: job.KindCPU, Tenant: 2, Request: job.Request{CPUCores: 4, Nodes: 1}, Work: 4 * time.Hour, Bandwidth: 1},
		{ID: 3, Kind: job.KindCPU, Tenant: 3, Request: job.Request{CPUCores: 4, Nodes: 1}, Work: 4 * time.Hour, Bandwidth: 1},
		// Half an hour later a training job needs its reserved cores back.
		{
			ID: 4, Kind: job.KindGPUTraining, Tenant: 1,
			Category: job.CategoryCV, Model: "resnet50",
			Request: job.Request{CPUCores: 2, GPUs: 1, Nodes: 1},
			Arrival: 30 * time.Minute,
			Work:    time.Hour,
		},
	}

	spec := sim.RunSpec{Name: "multiarray", Options: opts, Jobs: jobs, NewScheduler: func() (sched.Scheduler, error) {
		return core.New(cfg, opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
	}}
	res, err := spec.Run()
	if err != nil {
		return err
	}

	fmt.Println("node: 12 cores, GPU array reserves 8, CPU array owns 4")
	fmt.Println("\njob  kind          queue      end-to-end  preempted")
	for id := job.ID(1); id <= 4; id++ {
		js := res.Jobs[id]
		fmt.Printf("%-4d %-13s %-10s %-11s %d\n",
			id, js.Job.Kind,
			js.QueueTime().Truncate(time.Second),
			js.EndToEnd().Truncate(time.Second),
			js.Preemptions)
	}
	fmt.Printf("\ncross-array preemptions: %d\n", res.Preemptions)
	fmt.Println("the GPU job started immediately: CODA aborted a borrowing CPU job,")
	fmt.Println("which re-entered the CPU array head and completed after the reclaim")
	return nil
}
