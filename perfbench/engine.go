package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/coda-repro/coda/internal/experiments"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

// defaultSeed is the seed whose result dumps are pinned in engineWorkload.
const defaultSeed = 1

// setupRepeats is how many set-ups a run times, so setup_s is a median of
// several samples.
const setupRepeats = 20

// setupGap is the idle time before each timed set-up. Set-up takes well
// under a millisecond on the engine's small workloads, and back-to-back
// samples share the cache state the previous one left, which made a run's
// median swing by ±30% from one run to the next on a 2-vCPU host. After an
// idle gap every sample starts equally cold, as a user's one set-up does:
// the median doubled and its run-to-run range fell to ±7%.
const setupGap = 25 * time.Millisecond

// coldStart readies the process for one timed set-up: an idle gap, then a
// collected heap. Set-up is mostly allocation, and landing it on freed
// memory rather than fresh pages halved the paper month's set-up time and
// its drift.
func coldStart() {
	time.Sleep(setupGap)
	runtime.GC()
}

// engineWorkload is one batch replay: a scale preset under one scheduler.
type engineWorkload struct {
	scheduler string
	scale     func(seed int64) experiments.Scale
	// paperTrace keeps the paper's trace (FullScale's seed) and lets the
	// seed drive only the simulator's measurement noise.
	paperTrace bool
	// dumpSHA is the sha256 of sim.DumpResult at defaultSeed, recorded when
	// the benchmark was defined. A speed-only change must keep it.
	dumpSHA string
}

// paperMonthCODA is the paper's operating point (80 nodes, 30 days, 75k CPU
// and 25k GPU jobs) under the paper's scheduler.
var paperMonthCODA = engineWorkload{
	scheduler: "coda",
	scale: func(seed int64) experiments.Scale {
		sc := experiments.FullScale()
		sc.Seed = seed
		return sc
	},
	dumpSHA:    "027ba43b464b05f7423aff11b7dbf4580726fa26ea86ded0d74976cd43173408",
	paperTrace: true,
}

// warehouseDayFIFO is one day of the warehouse preset's arrival rate on
// 5,000 nodes under FIFO, which bypasses internal/core entirely.
var warehouseDayFIFO = engineWorkload{
	scheduler: "fifo",
	scale: func(seed int64) experiments.Scale {
		return experiments.Scale{Seed: seed, Days: 1, CPUJobs: 107_143, GPUJobs: 35_714, Nodes: 5000}
	},
	dumpSHA: "1643549c3ce088587b1c71a3bfc84a5db648c4b7204734bb41ecf0f20400a4eb",
}

// built is a simulator ready to Run and how long building it took.
type built struct {
	sim   *sim.Simulator
	setup time.Duration
}

// build makes the scheduler, the trace source and the streaming simulator,
// the set-up a user pays before a replay starts. A non-nil t wraps the
// scheduler and records the set-up calls as spans.
func build(spec sim.RunSpec, t *Tracer) (built, error) {
	factory := spec.NewScheduler
	if t != nil {
		factory = wrapFactory(factory, t)
	}
	start := time.Now()
	s, err := factory()
	if err != nil {
		return built{}, err
	}
	span := beginOpt(t, "trace.new_source")
	src, err := trace.NewSource(*spec.Trace)
	endOpt(t, span)
	if err != nil {
		return built{}, err
	}
	span = beginOpt(t, "sim.new_streaming")
	sm, err := sim.NewStreaming(spec.Options, s, src)
	endOpt(t, span)
	if err != nil {
		return built{}, err
	}
	return built{sim: sm, setup: time.Since(start)}, nil
}

func beginOpt(t *Tracer, name string) int32 {
	if t == nil {
		return 0
	}
	return t.Begin(t.Name(name))
}

func endOpt(t *Tracer, id int32) {
	if t != nil {
		t.End(id)
	}
}

// kept is what the benchmark keeps of a replay's result once it has been
// checked: holding whole Results would tax later replays' garbage
// collection and skew their timings.
type kept struct {
	events, placementQueries int64
	preemptions, throttles   int
	gpuUtilPct               float64
	gpuQueueMeanMin          float64
	dumpID                   string // sha256 of sim.DumpResult
}

func keep(res *sim.Result) kept {
	return kept{
		events:           res.Events,
		placementQueries: res.PlacementQueries,
		preemptions:      res.Preemptions,
		throttles:        res.Throttles,
		gpuUtilPct:       res.Summarize().GPUUtil * 100,
		gpuQueueMeanMin:  res.GPUQueue.Mean().Minutes(),
	}
}

// replayResult is one timed and checked replay.
type replayResult struct {
	kept
	wall  time.Duration
	mem   runtime.MemStats // deltas over the replay: Mallocs, NumGC, PauseTotalNs
	check error            // the output check's verdict
}

// replay builds and runs spec once, recording spans on t when it is non-nil,
// and checks the result with check.
func replay(spec sim.RunSpec, t *Tracer, check func(*sim.Result, string) error) (replayResult, error) {
	runtime.GC() // set up and run every replay from a collected heap
	b, err := build(spec, t)
	if err != nil {
		return replayResult{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	span := beginOpt(t, "sim.run")
	start := time.Now()
	res, err := b.sim.Run()
	wall := time.Since(start)
	endOpt(t, span)
	runtime.ReadMemStats(&after)
	if err != nil {
		return replayResult{}, err
	}
	sum := sha256.Sum256([]byte(sim.DumpResult(res)))
	r := replayResult{wall: wall}
	r.kept = keep(res)
	r.dumpID = hex.EncodeToString(sum[:])
	r.check = check(res, r.dumpID)
	r.mem.Mallocs = after.Mallocs - before.Mallocs
	r.mem.NumGC = after.NumGC - before.NumGC
	r.mem.PauseTotalNs = after.PauseTotalNs - before.PauseTotalNs
	return r, nil
}

// checker verifies replay outputs: every submitted job arrived and is
// accounted for exactly once (completed, or still queued or running when
// the virtual-time cap ended the run); nothing was killed or cancelled in a
// fault-free run; and the result dump matches the run's first replay and,
// at the default seed, the dump pinned for the workload.
type checker struct {
	submitted int
	pinned    string // expected dump at this seed, or ""
	first     string // the run's first dump
}

func (c *checker) check(res *sim.Result, dumpID string) error {
	if len(res.Jobs) != c.submitted {
		return fmt.Errorf("%d jobs arrived, %d submitted", len(res.Jobs), c.submitted)
	}
	done := 0
	for id, js := range res.Jobs {
		if js.Cancelled || js.TerminallyFailed || js.Kills > 0 {
			return fmt.Errorf("job %d was killed or cancelled in a fault-free run", id)
		}
		if js.Completed {
			if !js.Started || js.CompletedAt < js.FirstStart {
				return fmt.Errorf("job %d completed without a valid start", id)
			}
			done++
		}
	}
	if done != res.GPUJobsDone+res.CPUJobsDone {
		return fmt.Errorf("%d jobs completed per job record, %d per counters", done, res.GPUJobsDone+res.CPUJobsDone)
	}
	if c.first == "" {
		c.first = dumpID
	} else if dumpID != c.first {
		return fmt.Errorf("result dump %s differs from the run's first replay %s", dumpID, c.first)
	}
	if c.pinned != "" && dumpID != c.pinned {
		return fmt.Errorf("result dump %s differs from the pinned %s", dumpID, c.pinned)
	}
	return nil
}

func runEngine(cfg runConfig, w engineWorkload) (*outcome, error) {
	spec, err := experiments.BenchSpec(w.scale(cfg.seed), w.scheduler, false)
	if err != nil {
		return nil, err
	}
	if w.paperTrace {
		spec.Trace.Seed = experiments.FullScale().Seed
	}
	c := &checker{submitted: spec.JobCount()}
	if cfg.seed == defaultSeed {
		c.pinned = w.dumpSHA
	}
	if cfg.traced {
		return traceEngine(cfg, w, spec, c)
	}
	start := time.Now()
	out := &outcome{}
	var setups, rates, walls []float64
	for i := 0; i < setupRepeats; i++ {
		coldStart()
		b, err := build(spec, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, b.setup.Seconds())
	}
	// Replay while the next replay, as long as the last one, still ends
	// within the budget.
	var first replayResult
	for len(walls) == 0 || time.Since(start)+time.Duration(walls[len(walls)-1]*nsPerMs) <= cfg.budget {
		r, err := replay(spec, nil, c.check)
		if err != nil {
			return nil, err
		}
		if len(rates) == 0 {
			first = r
		}
		out.check(r.check)
		rates = append(rates, float64(c.submitted)/r.wall.Seconds())
		walls = append(walls, float64(r.wall)/nsPerMs)
		fmt.Printf("replay %d: %v wall, %.0f jobs/s, %d events, dump %s\n",
			len(rates), r.wall.Round(time.Millisecond), rates[len(rates)-1], r.events, r.dumpID)
	}
	out.set("setup_s", "s", median(setups))
	out.set("peak_rss_mib", "MiB", peakRSSMiB())
	out.set("ok_pct", "%", okPct(out))
	out.set("jobs_per_s", "1/s", median(rates))
	out.set("gpu_util_pct", "%", first.gpuUtilPct)
	out.set("latency_p50_ms", "ms", percentile(walls, 50))
	out.set("latency_p90_ms", "ms", percentile(walls, 90))
	return out, nil
}

// okPct is the share of attempted runs or requests whose output checked out.
func okPct(o *outcome) float64 {
	return 100 * float64(o.attempted-o.failed) / float64(o.attempted)
}

// traceEngine alternates untraced and traced replays while another pair
// fits in the budget (one pair at least), reports per-layer metrics from the first traced
// replay and the tracing overhead from the medians of both. Every replay,
// traced or not, must produce the same result dump.
func traceEngine(cfg runConfig, w engineWorkload, spec sim.RunSpec, c *checker) (*outcome, error) {
	start := time.Now()
	out := &outcome{}
	nsPerJob, err := drainSource(*spec.Trace)
	if err != nil {
		return nil, err
	}

	var plain, traced []float64
	var base, tracedFirst replayResult
	for len(traced) == 0 || time.Since(start)+time.Duration((plain[len(plain)-1]+traced[len(traced)-1])*1e9) <= cfg.budget {
		r, err := replay(spec, nil, c.check)
		if err != nil {
			return nil, err
		}
		out.check(r.check)
		plain = append(plain, r.wall.Seconds())
		if len(traced) == 0 {
			base = r
		}

		t := NewTracer()
		r, err = replay(spec, t, c.check)
		if err != nil {
			return nil, err
		}
		out.check(r.check)
		if len(traced) == 0 {
			tracedFirst = r
			out.spans = t
		}
		traced = append(traced, r.wall.Seconds())
		fmt.Printf("pair %d: untraced %.3fs, traced %.3fs\n", len(traced), plain[len(plain)-1], traced[len(traced)-1])
	}

	layerMetrics(out, tracedFirst.kept)
	out.put("sim.loop.self_ms", ms(out.layer("sim.run").SelfNs))
	out.put("sim.ns_per_event", float64(base.wall.Nanoseconds())/float64(base.events))
	out.put("trace.ns_per_job", nsPerJob)
	out.put("go.allocs_per_event", float64(base.mem.Mallocs)/float64(base.events))
	out.put("go.gc_cycles", float64(base.mem.NumGC))
	out.put("go.gc_pause_ms", float64(base.mem.PauseTotalNs)/nsPerMs)
	out.put("trace_overhead_pct", 100*(median(traced)/median(plain)-1))
	out.fillAbsent(func(name string) string {
		switch {
		case name == "core.audit.self_ms" && w.scheduler == "coda":
			return "replays run with invariants off, as the paper's do; the audit runs on serve-mixed-coda"
		case strings.HasPrefix(name, "core."):
			return "the " + w.scheduler + " scheduler lives in internal/sched; core never runs"
		case strings.HasPrefix(name, "sched."):
			return "the coda scheduler lives in internal/core; sched's policies never run"
		}
		return "engine workloads have no control plane, WAL or HTTP server"
	})
	return out, nil
}

// drainSource times an identical trace source drained alone, per job.
func drainSource(cfg trace.Config) (float64, error) {
	start := time.Now()
	src, err := trace.NewSource(cfg)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		j, err := src.Next()
		if err != nil {
			return 0, err
		}
		if j == nil {
			break
		}
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}
