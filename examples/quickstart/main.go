// Quickstart: build a small simulated GPU cluster, submit a mixed batch of
// DNN training jobs and CPU jobs, schedule them with CODA, and print the
// headline metrics.
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
	// An 8-node cluster with the paper's node shape (28 cores, 5 GPUs).
	opts := sim.DefaultOptions()
	opts.Cluster.Nodes = 8

	// CODA: adaptive CPU allocator + multi-array scheduler + contention
	// eliminator.

	// A mixed workload: training jobs that under- and over-request CPU
	// cores, plus CPU jobs.
	jobs := []*job.Job{
		{
			ID: 1, Kind: job.KindGPUTraining, Tenant: 1,
			Category: job.CategoryCV, Model: "resnet50",
			// The owner asked for just 1 core; CODA will find the optimum.
			Request: job.Request{CPUCores: 1, GPUs: 1, Nodes: 1},
			Work:    90 * time.Minute,
		},
		{
			ID: 2, Kind: job.KindGPUTraining, Tenant: 1,
			Category: job.CategoryNLP, Model: "transformer",
			// The owner asked for 16 cores; CODA will slim the job.
			Request: job.Request{CPUCores: 16, GPUs: 1, Nodes: 1},
			Arrival: 5 * time.Minute,
			Work:    time.Hour,
		},
		{
			ID: 3, Kind: job.KindGPUTraining, Tenant: 2,
			Category: job.CategorySpeech, Model: "wavenet",
			Request: job.Request{CPUCores: 2, GPUs: 4, Nodes: 1},
			Arrival: 10 * time.Minute,
			Work:    2 * time.Hour,
		},
		{
			ID: 4, Kind: job.KindCPU, Tenant: 3,
			Request:   job.Request{CPUCores: 4, Nodes: 1},
			Arrival:   time.Minute,
			Work:      45 * time.Minute,
			Bandwidth: 1.2,
		},
	}

	spec := sim.RunSpec{Name: "quickstart", Options: opts, Jobs: jobs, NewScheduler: func() (sched.Scheduler, error) {
		return core.New(core.DefaultConfig(), opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
	}}
	res, err := spec.Run()
	if err != nil {
		return err
	}

	fmt.Println("job  model        requested  granted  queue     end-to-end")
	for id := job.ID(1); id <= 4; id++ {
		js := res.Jobs[id]
		model := js.Job.Model
		if model == "" {
			model = "(cpu job)"
		}
		fmt.Printf("%-4d %-12s %-10d %-8d %-9s %s\n",
			id, model, js.Job.Request.CPUCores, js.FinalCores,
			js.QueueTime().Truncate(time.Second),
			js.EndToEnd().Truncate(time.Second))
	}
	sm := res.Summarize()
	fmt.Printf("\ncluster: gpu util %.1f%%, gpu active %.1f%%, %d preemptions, %d throttles\n",
		sm.GPUUtil*100, sm.GPUActiveRate*100, res.Preemptions, res.Throttles)
	return nil
}
