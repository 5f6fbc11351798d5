package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/ctl"
	"github.com/coda-repro/coda/internal/ctl/wal"
	"github.com/coda-repro/coda/internal/experiments"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
	"github.com/coda-repro/coda/internal/trace"
)

const (
	// serveTick is the wall period of the admission ticker loop.
	serveTick = 10 * time.Millisecond
	// serveCheckpointEvery is coda-serve's default checkpoint cadence.
	serveCheckpointEvery = 64
	// ackLimit is the submit-ack p90 a rate level must meet to count for
	// submit_rate_at_slo. The limit is on p90, not p99: the WAL's fsync
	// stalls for about 0.3 s roughly once a minute on a shared disk, which
	// moves a level's p99 by 5x in one run of five but leaves p90 alone.
	ackLimit = 100 * time.Millisecond
	// maxInFlight bounds the generator's outstanding requests; a request
	// due while the bound is reached counts as failed.
	maxInFlight = 4096
	// resumeRepeats is how many times the final state is recovered, so
	// recovery time is a median.
	resumeRepeats = 5
	// serveReserve is the part of the budget kept for set-up, drain and
	// recovery rather than offered load.
	serveReserve = 3 * time.Second
)

// serveRates are the fixed offered request rates, in requests per second.
// All three lie well inside capacity, so every healthy run meets the SLO at
// the top one and submit_rate_at_slo reads 200 submits/s: the figure is a
// tripwire for a serve-path loss, and it cannot show a gain.
var serveRates = []float64{100, 200, 400}

// requestMix is the order of request kinds each level repeats. No measured
// traffic exists for the control plane; the mix copies the example session
// in the repository README ("Serving the scheduler"): two submits, one
// GET /v1/jobs/{id}, one GET /v1/nodes. Its drain and cancel are left out
// because they change what the cluster runs, and its metrics scrape because
// a monitor, not the users, sets that rate. The 2:1:1 ratio is therefore an
// assumption, not a measurement.
var requestMix = []int{kindSubmit, kindJobRead, kindSubmit, kindNodesRead}

// submitShare is the share of requests that are submits.
var submitShare = func() float64 {
	n := 0
	for _, k := range requestMix {
		if k == kindSubmit {
			n++
		}
	}
	return float64(n) / float64(len(requestMix))
}()

// referenceLevel is the rate level whose ack latencies are the workload's
// end-to-end latency: the middle one, well inside capacity.
const referenceLevel = 1

// traceJobsPerSecond is the paper trace's arrival rate in virtual time. Each
// rate level advances virtual time fast enough that its submit rate matches
// it, so the cluster sees the paper's load at every level.
var traceJobsPerSecond = func() float64 {
	sc := experiments.FullScale()
	return float64(sc.CPUJobs+sc.GPUJobs) / sc.Duration().Seconds()
}()

// serveStores opens the durable WAL and checkpoint store in dir.
func serveStores(dir string) (*wal.FileLog, *wal.FileStore, error) {
	log, err := wal.OpenFileLog(filepath.Join(dir, "requests.wal"))
	if err != nil {
		return nil, nil, err
	}
	store, err := wal.NewFileStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	return log, store, nil
}

// serveConfig is coda-serve's machine configuration with CODA on 80 nodes,
// optionally with every seam wrapped for tracing.
func serveConfig(seed int64, log wal.Log, store wal.CheckpointStore, t *Tracer) ctl.Config {
	opts := sim.DefaultOptions()
	opts.Cluster.Nodes = experiments.FullScale().Nodes
	opts.Seed = seed
	opts.Invariants = true
	cc := opts.Cluster
	factory := func() (sched.Scheduler, error) { return core.NewForCluster(core.DefaultConfig(), cc) }
	if t != nil {
		factory = wrapFactory(factory, t)
		log = newTimedLog(log, t)
		store = newTimedStore(store, t)
	}
	return ctl.Config{Options: opts, NewScheduler: factory, Log: log, Store: store, CheckpointEvery: serveCheckpointEvery}
}

// serveInstance is one running control plane: machine, HTTP server on a
// loopback listener, and the ticker goroutine that drives it.
type serveInstance struct {
	dir     string
	log     *wal.FileLog
	cfg     ctl.Config
	machine *ctl.Machine
	server  *ctl.Server
	handler *timedHandler
	http    *http.Server
	addr    string
	served  chan error

	vtick  atomic.Int64 // virtual time per tick, set per rate level
	stop   chan struct{}
	ticked chan error
	ticks  []tickRecord // written by the ticker goroutine, read after it exits
	t      *Tracer
}

// tickRecord is one Server.Tick as the benchmark saw it.
type tickRecord struct {
	start          time.Time
	applied, batch uint64
}

// h2c is unencrypted HTTP/2 only: one connection multiplexes every
// outstanding request, so the generator stays open-loop within nproc
// connections.
func h2c() *http.Protocols {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &p
}

// startServe builds a fresh machine over the stores opened in dir and
// serves it on loopback, the way cmd/coda-serve does. The ticker is not
// started yet.
func startServe(dir string, log *wal.FileLog, store *wal.FileStore, seed int64, t *Tracer) (*serveInstance, error) {
	var err error
	s := &serveInstance{dir: dir, log: log, cfg: serveConfig(seed, log, store, t), t: t,
		stop: make(chan struct{}), ticked: make(chan error, 1), served: make(chan error, 1)}
	span := beginOpt(t, "ctl.new_machine")
	s.machine, err = ctl.NewMachine(s.cfg)
	endOpt(t, span)
	if err != nil {
		return nil, err
	}
	s.server = ctl.NewServer(s.machine, ctl.ServerConfig{})
	var h http.Handler = s.server
	if t != nil {
		s.handler = newTimedHandler(s.server, t)
		h = s.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.http = &http.Server{Handler: h, Protocols: h2c()}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// runTicker drives Server.Tick every serveTick until stop is closed, as
// cmd/coda-serve's ticker loop does, advancing virtual time by vtick.
func (s *serveInstance) runTicker() {
	ticker := time.NewTicker(serveTick)
	defer ticker.Stop()
	var tickName int32
	if s.t != nil {
		tickName = s.t.Name("ctl.tick")
	}
	at := s.machine.Now()
	for {
		select {
		case <-ticker.C:
			at += time.Duration(s.vtick.Load())
			before := s.machine.Applied()
			start := time.Now()
			var span int32
			if s.t != nil {
				span = s.t.Begin(tickName)
			}
			err := s.server.Tick(at)
			if s.t != nil {
				s.t.End(span)
			}
			after := s.machine.Applied()
			s.ticks = append(s.ticks, tickRecord{start: start, applied: after, batch: after - before})
			if err != nil {
				s.ticked <- err
				return
			}
		case <-s.stop:
			s.ticked <- nil
			return
		}
	}
}

// shutdown stops the ticker, the server and the listener, and closes the
// WAL file. It returns the ticker's error, if any.
func (s *serveInstance) shutdown() error {
	close(s.stop)
	err := <-s.ticked
	s.server.Stop()
	_ = s.http.Close()
	<-s.served
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// closeUnstarted releases an instance whose ticker never ran.
func (s *serveInstance) closeUnstarted() {
	s.server.Stop()
	_ = s.http.Close()
	<-s.served
	s.log.Close()
}

// request is one scheduled request of the offered load.
type request struct {
	level int
	at    time.Duration // due time after the load starts
	late  bool          // due in the last third of its level
	kind  int           // kindSubmit, kindJobRead or kindNodesRead
	body  []byte
}

const (
	kindSubmit = iota
	kindJobRead
	kindNodesRead
)

// result is what the generator observed for one request.
type result struct {
	level     int
	kind      int
	due, sent time.Time
	done      time.Time
	ok        bool
	seq       uint64
	jobID     int64
	late      bool // due in the last third of its level
}

// loadPlan builds the offered load: Poisson arrivals at each fixed rate for
// levelDur, one level after another, with submit bodies taken from the
// seeded trace in arrival order. Poisson rather than evenly spaced arrivals
// keep the load from phase-locking with the ticker.
func loadPlan(seed int64, levelDur time.Duration) ([][]request, error) {
	rng := rand.New(rand.NewSource(seed))
	levels := make([][]request, len(serveRates))
	submits := 0
	for li, rate := range serveRates {
		base := time.Duration(li) * levelDur
		for at := 0.0; ; {
			at += rng.ExpFloat64() / rate
			off := time.Duration(at * float64(time.Second))
			if off >= levelDur {
				break
			}
			r := request{level: li, at: base + off, late: 3*off >= 2*levelDur, kind: requestMix[len(levels[li])%len(requestMix)]}
			if r.kind == kindSubmit {
				submits++
			}
			levels[li] = append(levels[li], r)
		}
	}

	cfg := experiments.FullScale()
	tc := trace.DefaultConfig()
	tc.Seed = seed
	tc.Duration = cfg.Duration()
	tc.CPUJobs, tc.GPUJobs = cfg.CPUJobs, cfg.GPUJobs
	src, err := trace.NewSource(tc)
	if err != nil {
		return nil, err
	}
	jobs := make([]*job.Job, 0, submits)
	for len(jobs) < submits {
		j, err := src.Next()
		if err != nil {
			return nil, err
		}
		if j == nil {
			return nil, fmt.Errorf("trace holds fewer than %d jobs", submits)
		}
		jobs = append(jobs, j)
	}
	script, err := ctl.ScriptFromJobs(jobs, serveTick, seed, ctl.RequestChaos{}, 0)
	if err != nil {
		return nil, err
	}
	next := 0
	for _, level := range levels {
		for i := range level {
			if level[i].kind != kindSubmit {
				continue
			}
			if level[i].body, err = json.Marshal(script[next].Req.Job); err != nil {
				return nil, err
			}
			next++
		}
	}
	return levels, nil
}

// offer sends every level's requests open-loop at their due times and
// returns what came back. Latency is measured from the due time.
func offer(s *serveInstance, levels [][]request, seed int64) []result {
	client := &http.Client{Transport: &http.Transport{Protocols: h2c(), MaxConnsPerHost: 2}, Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(^seed)) // read targets; the plan used seed
	base := "http://" + s.addr

	var (
		mu       sync.Mutex
		results  []result
		lastJob  atomic.Int64
		inFlight = make(chan struct{}, maxInFlight)
		wg       sync.WaitGroup
	)
	do := func(r request, res result) {
		defer wg.Done()
		defer func() { <-inFlight }()
		var resp *http.Response
		var err error
		switch r.kind {
		case kindSubmit:
			resp, err = client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(r.body))
		case kindJobRead:
			resp, err = client.Get(fmt.Sprintf("%s/v1/jobs/%d", base, res.jobID))
		default:
			resp, err = client.Get(base + "/v1/nodes")
		}
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			res.ok = rerr == nil && resp.StatusCode == http.StatusOK
			if res.ok && r.kind == kindSubmit {
				var ack ctl.Response
				res.ok = json.Unmarshal(body, &ack) == nil && ack.Err == "" && ack.JobID > 0
				res.seq, res.jobID = ack.Seq, ack.JobID
				for {
					last := lastJob.Load()
					if ack.JobID <= last || lastJob.CompareAndSwap(last, ack.JobID) {
						break
					}
				}
			}
		}
		res.done = time.Now()
		mu.Lock()
		results = append(results, res)
		mu.Unlock()
	}

	start := time.Now()
	for li, level := range levels {
		s.vtick.Store(int64(float64(serveTick) * serveRates[li] * submitShare / traceJobsPerSecond))
		if s.t != nil {
			s.t.SetRun(li) // spans carry their rate level as run ID
		}
		for _, r := range level {
			due := start.Add(r.at)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			res := result{level: li, kind: r.kind, due: due, sent: time.Now(), late: r.late}
			if r.kind == kindJobRead {
				last := lastJob.Load()
				if last == 0 {
					r.kind, res.kind = kindNodesRead, kindNodesRead
				} else {
					res.jobID = 1 + rng.Int63n(last)
				}
			}
			select {
			case inFlight <- struct{}{}:
			default:
				mu.Lock()
				results = append(results, res) // not ok: the generator's bound was reached
				mu.Unlock()
				continue
			}
			wg.Add(1)
			go do(r, res)
		}
	}
	wg.Wait()
	return results
}

// levelStats summarizes one rate level.
type levelStats struct {
	rate              float64
	ackMs, readMs     []float64
	ackLateMs         []float64 // acks due in the level's last third
	attempted, failed int
	latenessMs        []float64
}

func levelSummaries(results []result) []levelStats {
	out := make([]levelStats, len(serveRates))
	for i := range out {
		out[i].rate = serveRates[i]
	}
	for _, r := range results {
		l := &out[r.level]
		l.attempted++
		if !r.ok {
			l.failed++
			continue
		}
		ms := float64(r.done.Sub(r.due)) / nsPerMs
		l.latenessMs = append(l.latenessMs, float64(r.sent.Sub(r.due))/nsPerMs)
		if r.kind == kindSubmit {
			l.ackMs = append(l.ackMs, ms)
			if r.late {
				l.ackLateMs = append(l.ackLateMs, ms)
			}
		} else {
			l.readMs = append(l.readMs, ms)
		}
	}
	return out
}

// meetsSLO reports whether a level kept its ack p90 under ackLimit with
// nothing failed and no growing backlog: a backlog delays every request of
// the level's last third, so their median must stay under half the limit,
// while a brief stall only touches the tail.
func (l levelStats) meetsSLO() bool {
	limit := float64(ackLimit) / nsPerMs
	return l.failed == 0 && len(l.ackMs) > 0 && percentile(l.ackMs, 90) <= limit &&
		percentile(l.ackLateMs, 50) <= limit/2
}

// serveRun is one load run against a fresh control plane.
type serveRun struct {
	inst       *serveInstance
	setups     []float64
	results    []result
	stats      []levelStats
	cpu        time.Duration // process CPU time spent while the load ran
	applied    uint64
	res        *sim.Result
	recoveries []float64
	replayed   int
}

// setUpServe sets up a control plane setupRepeats+1 times in fresh
// directories under workDir, timing each, and returns the last one. A
// non-nil t traces that last one. Set-ups run on one P, as the engine's
// do: with a second P the medians of six runs ranged 0.20–0.33 ms, on one
// 0.19–0.25 ms.
func setUpServe(workDir string, seed int64, t *Tracer) (*serveInstance, []float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var s *serveInstance
	var setups []float64
	for i := 0; i <= setupRepeats; i++ {
		if s != nil {
			s.closeUnstarted()
		}
		dir := filepath.Join(workDir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		var tr *Tracer
		if i == setupRepeats {
			tr = t // only the instance under load is traced
		}
		// Opening the stores is left out of set-up time: it is a file
		// create and a mkdir on the host's disk, whose latency swung by up
		// to 1.5x between runs and is not the program's.
		log, store, err := serveStores(dir)
		if err != nil {
			return nil, nil, err
		}
		coldStart() // as for the engine set-ups
		start := time.Now()
		s, err = startServe(dir, log, store, seed, tr)
		if err != nil {
			log.Close()
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return s, setups, nil
}

// serveOnce sets up a control plane, offers it the planned load, stops it
// cleanly and recovers it resumeRepeats times. Output checks are counted
// on out. A non-nil t traces the instance under load and its first
// recovery.
func serveOnce(out *outcome, workDir string, seed int64, levels [][]request, t *Tracer) (*serveRun, error) {
	s, setups, err := setUpServe(workDir, seed, t)
	if err != nil {
		return nil, err
	}
	run := &serveRun{inst: s, setups: setups}

	go s.runTicker()
	cpu0 := cpuTime()
	run.results = offer(s, levels, seed)
	run.cpu = cpuTime() - cpu0
	if err := s.shutdown(); err != nil {
		return nil, err
	}

	// Output checks: every request answered correctly, serve counters sane,
	// and every acked submit visible after recovery.
	var acked []int64
	for _, r := range run.results {
		out.attempted++
		if !r.ok {
			out.failed++
		}
		if r.ok && r.kind == kindSubmit {
			acked = append(acked, r.jobID)
		}
	}
	if err := s.machine.Counters().Sane(); err != nil {
		out.check(fmt.Errorf("serve counters: %w", err))
	}
	run.applied = s.machine.Applied()
	if run.res, err = s.machine.Finish(); err != nil {
		return nil, err
	}

	for i := 0; i < resumeRepeats; i++ {
		log, store, err := serveStores(s.dir)
		if err != nil {
			return nil, err
		}
		var tr *Tracer
		if i == 0 {
			tr = t
		}
		span := beginOpt(tr, "ctl.resume")
		start := time.Now()
		m, _, err := ctl.Resume(serveConfig(seed, log, store, nil))
		d := time.Since(start)
		endOpt(tr, span)
		log.Close()
		if err != nil {
			out.check(fmt.Errorf("resume: %w", err))
			continue
		}
		run.recoveries = append(run.recoveries, d.Seconds())
		run.replayed = m.Counters().ServeReplayed
		if i == 0 {
			out.check(checkRecovered(m, run.applied, acked))
		}
	}

	run.stats = levelSummaries(run.results)
	for _, l := range run.stats {
		fmt.Printf("rate %4.0f req/s: %d attempted, %d failed, ack p50 %.2f ms p99 %.2f ms, read p99 %.2f ms, lateness p99 %.2f ms, meets SLO %v\n",
			l.rate, l.attempted, l.failed, percentile(l.ackMs, 50), percentile(l.ackMs, 99),
			percentile(l.readMs, 99), percentile(l.latenessMs, 99), l.meetsSLO())
	}
	fmt.Printf("load: %d requests, %v CPU, %d records applied, %d replayed on recovery\n",
		len(run.results), run.cpu.Round(time.Millisecond), run.applied, run.replayed)
	return run, nil
}

func runServe(cfg runConfig) (*outcome, error) {
	workDir := filepath.Join(".bench_build", fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(workDir)
	out := &outcome{}
	if cfg.traced {
		// An untraced and a traced run share the budget; the overhead is
		// the traced run's CPU time per request against the untraced one's,
		// since an open loop fixes the wall time.
		levels, err := loadPlan(cfg.seed, levelDuration(cfg.budget/2))
		if err != nil {
			return nil, err
		}
		plain, err := serveOnce(out, filepath.Join(workDir, "plain"), cfg.seed, levels, nil)
		if err != nil {
			return nil, err
		}
		t := NewTracer()
		out.spans = t
		traced, err := serveOnce(out, filepath.Join(workDir, "traced"), cfg.seed, levels, t)
		if err != nil {
			return nil, err
		}
		out.put("trace_overhead_pct", 100*(traced.cpu.Seconds()/plain.cpu.Seconds()-1))
		traceServe(out, traced)
		return out, nil
	}

	levels, err := loadPlan(cfg.seed, levelDuration(cfg.budget))
	if err != nil {
		return nil, err
	}
	run, err := serveOnce(out, workDir, cfg.seed, levels, nil)
	if err != nil {
		return nil, err
	}
	// submit_rate_at_slo; a healthy run reads the top level's rate (see
	// serveRates).
	best := 0.0
	for _, l := range run.stats {
		if l.meetsSLO() {
			best = l.rate * submitShare
		}
	}
	ack := run.stats[referenceLevel].ackMs
	out.set("setup_s", "s", median(run.setups))
	out.set("peak_rss_mib", "MiB", peakRSSMiB())
	out.set("ok_pct", "%", okPct(out))
	out.set("jobs_per_s", "1/s", best)
	out.set("gpu_util_pct", "%", run.res.Summarize().GPUUtil*100)
	out.set("latency_p50_ms", "ms", percentile(ack, 50))
	out.set("latency_p90_ms", "ms", percentile(ack, 90))
	return out, nil
}

// levelDuration splits a budget, less the reserve, across the rate levels.
func levelDuration(budget time.Duration) time.Duration {
	return max((budget-serveReserve)/time.Duration(len(serveRates)), time.Second)
}

// checkRecovered verifies a recovered machine: it applied every record the
// live one did, its counters are sane, and every acked submit is known.
func checkRecovered(m *ctl.Machine, applied uint64, acked []int64) error {
	if m.Applied() != applied {
		return fmt.Errorf("recovered %d applied records, the live machine had %d", m.Applied(), applied)
	}
	if err := m.Counters().Sane(); err != nil {
		return fmt.Errorf("recovered counters: %w", err)
	}
	for _, id := range acked {
		if m.JobStatus(id).Phase == sim.PhaseUnknown {
			return fmt.Errorf("acked job %d is unknown after recovery", id)
		}
	}
	return nil
}

// traceServe derives the serve workload's per-layer metrics.
func traceServe(out *outcome, run *serveRun) {
	s := run.inst
	layerMetrics(out, keep(run.res))

	tick := out.layer("ctl.tick")
	out.put("ctl.tick.calls", float64(tick.Calls))
	out.put("ctl.tick.busy_ms", ms(tick.TotalNs))
	out.put("ctl.apply.self_ms", ms(tick.SelfNs))
	var records, batches uint64
	for _, tr := range s.ticks {
		if tr.batch > 0 {
			records += tr.batch
			batches++
		}
	}
	out.put("ctl.batch_size", float64(records)/float64(max(batches, 1)))

	// Queue wait: from a submit's send to the start of the tick that
	// applied its WAL record. Ticks are in order, so the first one whose
	// applied count covers the record's sequence number applied it.
	var waits, reads []float64
	for _, r := range run.results {
		switch {
		case !r.ok:
		case r.kind == kindSubmit:
			i := sort.Search(len(s.ticks), func(i int) bool { return s.ticks[i].applied >= r.seq })
			if i < len(s.ticks) {
				waits = append(waits, float64(s.ticks[i].start.Sub(r.sent))/nsPerMs)
			}
		default:
			reads = append(reads, float64(r.done.Sub(r.due))/nsPerMs)
		}
	}
	out.put("ctl.queue_wait_p50_ms", percentile(waits, 50))
	out.put("ctl.queue_wait_p99_ms", percentile(waits, 99))

	log := s.cfg.Log.(*timedLog)
	app := out.layer("wal.append")
	out.put("wal.append.calls", float64(app.Calls))
	out.put("wal.append.ms", ms(app.TotalNs))
	out.put("wal.bytes_per_request", float64(log.bytes)/float64(max(log.records, 1)))
	save := out.layer("checkpoint.save")
	out.put("checkpoint.save.calls", float64(save.Calls))
	out.put("checkpoint.save.ms", ms(save.TotalNs))

	var server []float64
	for _, d := range out.layer("http.read").Durs {
		server = append(server, ms(d))
	}
	out.put("http.read.server_p99_ms", percentile(server, 99))
	out.put("http.read.client_p99_ms", percentile(reads, 99))
	out.put("http.shed", float64(s.handler.shed.Load()))
	out.put("ctl.resume.replayed_records", float64(run.replayed))
	out.put("ctl.resume.ms", ms(out.layer("ctl.resume").TotalNs))
	var late []float64
	for _, l := range run.stats {
		late = append(late, l.latenessMs...)
	}
	out.put("load.lateness_p99_ms", percentile(late, 99))
	out.put("load.ack_p99_ms", percentile(run.stats[referenceLevel].ackMs, 99))
	out.fillAbsent(func(name string) string {
		switch {
		case strings.HasPrefix(name, "sched."):
			return "the coda scheduler lives in internal/core; sched's policies never run"
		case strings.HasPrefix(name, "go."), name == "trace.ns_per_job":
			return "measured on the engine workloads, where the event loop owns the process"
		}
		return "the engine loop runs inside ctl.tick here; its time is in ctl.apply.self_ms"
	})
}
