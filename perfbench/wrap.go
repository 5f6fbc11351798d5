package main

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/ctl/wal"
	"github.com/coda-repro/coda/internal/job"
	"github.com/coda-repro/coda/internal/membw"
	"github.com/coda-repro/coda/internal/sched"
)

// schedLayer names the layer a scheduler belongs to: "core" for the CODA
// policy in internal/core, "sched" for the baselines in internal/sched.
func schedLayer(s sched.Scheduler) string {
	t := reflect.TypeOf(s)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if strings.HasSuffix(t.PkgPath(), "/internal/core") {
		return "core"
	}
	return "sched"
}

// timedScheduler spans every call the engine makes into a scheduler and
// hands the scheduler a timed Env, so calls back into the engine nest under
// the scheduler call that made them.
type timedScheduler struct {
	inner                           sched.Scheduler
	t                               *Tracer
	submit, complete, kill, tick    int32
	envStart, envResize, envPreempt int32
	envThrottle, envGPUUtil         int32
	meterCalls                      *atomic.Int64
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Bind(env sched.Env) { s.inner.Bind(&timedEnv{inner: env, s: s}) }

func (s *timedScheduler) Submit(j *job.Job) {
	id := s.t.Begin(s.submit)
	s.inner.Submit(j)
	s.t.End(id)
}

func (s *timedScheduler) OnJobCompleted(j *job.Job) {
	id := s.t.Begin(s.complete)
	s.inner.OnJobCompleted(j)
	s.t.End(id)
}

func (s *timedScheduler) OnJobKilled(j *job.Job) {
	id := s.t.Begin(s.kill)
	s.inner.OnJobKilled(j)
	s.t.End(id)
}

func (s *timedScheduler) Tick() {
	id := s.t.Begin(s.tick)
	s.inner.Tick()
	s.t.End(id)
}

// The engine type-asserts three optional interfaces: sched.Checkpointer
// (checkpoint and resume), sched.Canceller (queued-job cancel) and
// auditor (the scheduler's own bookkeeping audit, run after every event
// when invariants are on). A wrapper must implement exactly the optional
// interfaces its inner scheduler does: dropping one silently turns the
// feature off, adding one fakes support the policy lacks. One type per
// combination the repository's schedulers have: DRF and Static checkpoint,
// FIFO also cancels, CODA also audits.
type (
	ckptScheduler struct {
		*timedScheduler
		sched.Checkpointer
	}
	ckptCancelScheduler struct {
		*timedScheduler
		sched.Checkpointer
		sched.Canceller
	}
	ckptCancelAuditScheduler struct {
		*timedScheduler
		sched.Checkpointer
		sched.Canceller
		auditor
	}
)

// auditor mirrors the simulator's unexported invariantChecker.
type auditor interface {
	CheckInvariants() error
}

// timedAudit spans the scheduler's audit, so that its time counts as the
// scheduler's and not the caller's.
type timedAudit struct {
	inner auditor
	t     *Tracer
	span  int32
}

func (a timedAudit) CheckInvariants() error {
	id := a.t.Begin(a.span)
	defer a.t.End(id)
	return a.inner.CheckInvariants()
}

// wrapScheduler returns inner with every engine-to-scheduler and
// scheduler-to-engine call recorded on t. It refuses a scheduler whose
// optional interfaces no wrapper type matches.
func wrapScheduler(inner sched.Scheduler, t *Tracer) (sched.Scheduler, error) {
	layer := schedLayer(inner)
	s := &timedScheduler{
		inner:       inner,
		t:           t,
		submit:      t.Name(layer + ".submit"),
		complete:    t.Name(layer + ".complete"),
		kill:        t.Name(layer + ".kill"),
		tick:        t.Name(layer + ".tick"),
		envStart:    t.Name("sim.env.start"),
		envResize:   t.Name("sim.env.resize"),
		envPreempt:  t.Name("sim.env.preempt"),
		envThrottle: t.Name("sim.env.throttle"),
		envGPUUtil:  t.Name("sim.env.gpuutil"),
		meterCalls:  t.Counter("sim.env.meter"),
	}
	ck, isCk := inner.(sched.Checkpointer)
	cn, isCn := inner.(sched.Canceller)
	au, isAu := inner.(auditor)
	switch {
	case isCk && !isCn && !isAu:
		return ckptScheduler{s, ck}, nil
	case isCk && isCn && !isAu:
		return ckptCancelScheduler{s, ck, cn}, nil
	case isCk && isCn && isAu:
		return ckptCancelAuditScheduler{s, ck, cn, timedAudit{au, t, t.Name(layer + ".audit")}}, nil
	}
	return nil, fmt.Errorf("no timing wrapper for %s: checkpointer %v, canceller %v, auditor %v",
		inner.Name(), isCk, isCn, isAu)
}

// wrapFactory wraps every scheduler a RunSpec or ctl.Config factory builds.
func wrapFactory(f func() (sched.Scheduler, error), t *Tracer) func() (sched.Scheduler, error) {
	return func() (sched.Scheduler, error) {
		s, err := f()
		if err != nil {
			return nil, err
		}
		return wrapScheduler(s, t)
	}
}

// timedEnv spans the scheduler's calls back into the simulator: placement
// and start, core resizes, preemption, MBA throttling, GPU-utilization
// sampling and bandwidth-meter reads.
type timedEnv struct {
	inner sched.Env
	s     *timedScheduler
}

func (e *timedEnv) Now() time.Duration        { return e.inner.Now() }
func (e *timedEnv) Cluster() *cluster.Cluster { return e.inner.Cluster() }

// Meter is a constant-time accessor CODA calls millions of times a month;
// a span per call would cost more than the call and swamp the trace, so it
// is only counted and its time stays in the caller's self time.
func (e *timedEnv) Meter(nodeID int) (*membw.Meter, error) {
	e.s.meterCalls.Add(1)
	return e.inner.Meter(nodeID)
}

func (e *timedEnv) StartJob(jid job.ID, alloc job.Allocation) error {
	id := e.s.t.Begin(e.s.envStart)
	defer e.s.t.End(id)
	return e.inner.StartJob(jid, alloc)
}

func (e *timedEnv) ResizeJob(jid job.ID, coresPerNode int) error {
	id := e.s.t.Begin(e.s.envResize)
	defer e.s.t.End(id)
	return e.inner.ResizeJob(jid, coresPerNode)
}

func (e *timedEnv) PreemptJob(jid job.ID) (*job.Job, error) {
	id := e.s.t.Begin(e.s.envPreempt)
	defer e.s.t.End(id)
	return e.inner.PreemptJob(jid)
}

func (e *timedEnv) ThrottleJob(jid job.ID, capGBs float64) error {
	id := e.s.t.Begin(e.s.envThrottle)
	defer e.s.t.End(id)
	return e.inner.ThrottleJob(jid, capGBs)
}

func (e *timedEnv) UnthrottleJob(jid job.ID) error {
	id := e.s.t.Begin(e.s.envThrottle)
	defer e.s.t.End(id)
	return e.inner.UnthrottleJob(jid)
}

func (e *timedEnv) GPUUtil(jid job.ID) (float64, error) {
	id := e.s.t.Begin(e.s.envGPUUtil)
	defer e.s.t.End(id)
	return e.inner.GPUUtil(jid)
}

// timedLog spans WAL appends (write plus fsync) and counts the bytes and
// records they carry.
type timedLog struct {
	inner          wal.Log
	t              *Tracer
	span           int32
	bytes, records int64
}

func newTimedLog(inner wal.Log, t *Tracer) *timedLog {
	return &timedLog{inner: inner, t: t, span: t.Name("wal.append")}
}

func (l *timedLog) Append(frames [][]byte) error {
	id := l.t.Begin(l.span)
	err := l.inner.Append(frames)
	l.t.End(id)
	for _, f := range frames {
		l.bytes += int64(len(f))
	}
	l.records += int64(len(frames))
	return err
}

func (l *timedLog) Bytes() ([]byte, error) { return l.inner.Bytes() }
func (l *timedLog) Syncs() int             { return l.inner.Syncs() }

// timedStore spans checkpoint saves and loads.
type timedStore struct {
	inner      wal.CheckpointStore
	t          *Tracer
	save, load int32
}

func newTimedStore(inner wal.CheckpointStore, t *Tracer) *timedStore {
	return &timedStore{inner: inner, t: t, save: t.Name("checkpoint.save"), load: t.Name("checkpoint.load")}
}

func (s *timedStore) Save(data []byte, seq uint64) error {
	id := s.t.Begin(s.save)
	defer s.t.End(id)
	return s.inner.Save(data, seq)
}

func (s *timedStore) Latest() ([]byte, error) {
	id := s.t.Begin(s.load)
	defer s.t.End(id)
	return s.inner.Latest()
}

// timedHandler records one root span per HTTP request, named by whether it
// mutates (submit) or reads, and counts requests shed with 429.
type timedHandler struct {
	inner       http.Handler
	t           *Tracer
	write, read int32
	shed        atomic.Int64
}

func newTimedHandler(inner http.Handler, t *Tracer) *timedHandler {
	return &timedHandler{inner: inner, t: t, write: t.Name("http.write"), read: t.Name("http.read")}
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	h.inner.ServeHTTP(rec, r)
	end := time.Now()
	name := h.write
	if r.Method == http.MethodGet {
		name = h.read
	}
	h.t.Record(name, start, end)
	if rec.code == http.StatusTooManyRequests {
		h.shed.Add(1)
	}
}

// statusRecorder remembers the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}
