package sim

import (
	"errors"
	"fmt"

	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/trace"
)

// Clone returns a deep copy of the options. Options is a value type except
// for the fault plan's fixed-fault slice; CheckpointSink is a function
// value and is shared by the copy — give each run its own sink explicitly
// when runs must not write into the same checkpoint stream.
func (o Options) Clone() Options {
	o.Faults = o.Faults.Clone()
	return o
}

// RunSpec is a self-contained description of one simulation run: options,
// trace and scheduler recipe. A spec is a plain value that can be cloned,
// so one spec can seed many runs (a seed sweep, a matrix cell) without the
// runs sharing any mutable state.
//
// Schedulers are stateful and cannot be copied, so the spec carries a
// factory instead of an instance: NewScheduler must build a fresh scheduler
// on every call and must not capture mutable state shared with other specs.
type RunSpec struct {
	// Name labels the run in results, errors and reports.
	Name string
	// Options configures the simulator.
	Options Options
	// Jobs is a hand-built or recorded trace, replayed through
	// trace.FromJobs. Runs hand these jobs to the simulator without
	// copying; clone the spec (or the jobs) before reusing it. Mutually
	// exclusive with Trace.
	Jobs []*job.Job
	// Trace generates the trace lazily from a seeded source instead: each
	// run (and each clone) constructs its own trace.Source from this
	// config, so intake memory stays O(1) in the job count. Mutually
	// exclusive with Jobs.
	Trace *trace.Config
	// NewScheduler builds the run's scheduler.
	NewScheduler func() (sched.Scheduler, error)
}

// Clone returns a deep copy of the spec: options (including the fault
// plan) and every job are copied; the scheduler factory is shared, which
// is safe exactly because it constructs a fresh scheduler per call.
func (sp RunSpec) Clone() RunSpec {
	sp.Options = sp.Options.Clone()
	jobs := make([]*job.Job, len(sp.Jobs))
	for i, j := range sp.Jobs {
		jobs[i] = j.Clone()
	}
	sp.Jobs = jobs
	if sp.Trace != nil {
		cfg := *sp.Trace
		sp.Trace = &cfg
	}
	return sp
}

// JobCount returns how many jobs the spec will submit, without building a
// source: for a generated trace this is arithmetic on its config.
func (sp RunSpec) JobCount() int {
	if sp.Trace != nil {
		return sp.Trace.CPUJobs + sp.Trace.GPUJobs
	}
	return len(sp.Jobs)
}

// Source builds a fresh intake source for one run of the spec: a generator
// over Trace when set, else a replay of Jobs.
func (sp RunSpec) Source() (*trace.Source, error) {
	if sp.Trace == nil {
		return trace.FromJobs(sp.Jobs)
	}
	if len(sp.Jobs) > 0 {
		return nil, fmt.Errorf("sim: run spec %q sets both Jobs and Trace", sp.Name)
	}
	return trace.NewSource(*sp.Trace)
}

// Validate checks the spec without building anything.
func (sp RunSpec) Validate() error {
	if sp.NewScheduler == nil {
		return fmt.Errorf("sim: run spec %q has no scheduler factory", sp.Name)
	}
	if sp.Trace != nil {
		if len(sp.Jobs) > 0 {
			return fmt.Errorf("sim: run spec %q sets both Jobs and Trace", sp.Name)
		}
		if err := sp.Trace.Validate(); err != nil {
			return fmt.Errorf("sim: run spec %q: %w", sp.Name, err)
		}
	}
	if err := sp.Options.Validate(); err != nil {
		return fmt.Errorf("sim: run spec %q: %w", sp.Name, err)
	}
	return nil
}

// Run executes the spec on the calling goroutine: build the scheduler,
// build the simulator, run to completion. It is the single-threaded unit
// of work the runner package parallelizes across specs.
func (sp RunSpec) Run() (*Result, error) {
	if sp.NewScheduler == nil {
		return nil, errors.New("sim: run spec has no scheduler factory")
	}
	scheduler, err := sp.NewScheduler()
	if err != nil {
		return nil, fmt.Errorf("sim: run %q: %w", sp.Name, err)
	}
	src, err := sp.Source()
	if err != nil {
		return nil, fmt.Errorf("sim: run %q: %w", sp.Name, err)
	}
	simulator, err := NewStreaming(sp.Options, scheduler, src)
	if err != nil {
		return nil, fmt.Errorf("sim: run %q: %w", sp.Name, err)
	}
	res, err := simulator.Run()
	if err != nil {
		return nil, fmt.Errorf("sim: run %q: %w", sp.Name, err)
	}
	return res, nil
}
