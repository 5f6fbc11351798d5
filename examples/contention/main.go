// Contention example: co-locate a bandwidth-sensitive NLP training job
// with a HEAT-style memory-bandwidth hog and show the contention
// eliminator protecting the training job (§V-D, §VI-E). The same scenario
// runs twice — eliminator on and off — to expose the difference.
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

func scenario() []*job.Job {
	return []*job.Job{
		// BAT: the paper's most bandwidth-sensitive model (Fig. 7 shows a
		// >= 50% performance drop under contention).
		{
			ID: 1, Kind: job.KindGPUTraining, Tenant: 1,
			Category: job.CategoryNLP, Model: "bat",
			Request: job.Request{CPUCores: 5, GPUs: 1, Nodes: 1},
			Work:    2 * time.Hour,
		},
		// A HEAT-style hog arrives 15 minutes in and drives 120 GB/s.
		{
			ID: 2, Kind: job.KindBandwidthHog, Tenant: 2,
			Request:   job.Request{CPUCores: 16, Nodes: 1},
			Arrival:   15 * time.Minute,
			Work:      3 * time.Hour,
			Bandwidth: 120,
		},
	}
}

func runOnce(eliminator bool) (*sim.Result, error) {
	opts := sim.DefaultOptions()
	opts.Cluster.Nodes = 1 // force co-location

	cfg := core.DefaultConfig()
	cfg.DisableEliminator = !eliminator
	spec := sim.RunSpec{Name: "contention", Options: opts, Jobs: scenario(), NewScheduler: func() (sched.Scheduler, error) {
		return core.New(cfg, opts.Cluster.Nodes, opts.Cluster.CoresPerNode, opts.Cluster.GPUsPerNode)
	}}
	return spec.Run()
}

func run() error {
	withElim, err := runOnce(true)
	if err != nil {
		return err
	}
	without, err := runOnce(false)
	if err != nil {
		return err
	}

	fmt.Println("scenario: BAT (1N1G) co-located with a 120 GB/s bandwidth hog")
	fmt.Printf("\n%-24s %-18s %s\n", "", "eliminator on", "eliminator off")
	fmt.Printf("%-24s %-18s %s\n", "BAT end-to-end",
		withElim.Jobs[1].EndToEnd().Truncate(time.Second),
		without.Jobs[1].EndToEnd().Truncate(time.Second))
	fmt.Printf("%-24s %-18s %s\n", "hog end-to-end",
		withElim.Jobs[2].EndToEnd().Truncate(time.Second),
		without.Jobs[2].EndToEnd().Truncate(time.Second))
	fmt.Printf("%-24s %-18d %d\n", "MBA throttle actions", withElim.Throttles, without.Throttles)

	saved := without.Jobs[1].EndToEnd() - withElim.Jobs[1].EndToEnd()
	fmt.Printf("\nthe eliminator saved the training job %s by throttling the hog's bandwidth\n",
		saved.Truncate(time.Second))
	return nil
}
