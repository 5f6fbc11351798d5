package trace

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"github.com/coda-repro/coda/internal/job"
)

func TestSourceMatchesGenerate(t *testing.T) {
	cfg := smallConfig()
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := src.Total(), cfg.CPUJobs+cfg.GPUJobs; got != want {
		t.Fatalf("Total() = %d, want %d", got, want)
	}
	for i := 0; ; i++ {
		j, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if j == nil {
			if i != len(jobs) {
				t.Fatalf("source drained after %d jobs, Generate returned %d", i, len(jobs))
			}
			break
		}
		if i >= len(jobs) {
			t.Fatalf("source yielded more than Generate's %d jobs", len(jobs))
		}
		if !reflect.DeepEqual(j, jobs[i]) {
			t.Fatalf("job %d differs:\nsource:   %+v\ngenerate: %+v", i, j, jobs[i])
		}
	}
	if src.Remaining() != 0 {
		t.Errorf("Remaining() = %d after drain, want 0", src.Remaining())
	}
}

func TestSourceCursorResumeMidStream(t *testing.T) {
	cfg := smallConfig()
	cfg.CPUJobs, cfg.GPUJobs = 400, 150
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Emit part of the stream, checkpoint, then verify the resumed source
	// yields the identical remainder.
	for i := 0; i < 137; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	cur := src.CheckpointState()
	resumed, err := Resume(cur)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Remaining() != src.Remaining() {
		t.Fatalf("resumed Remaining() = %d, original %d", resumed.Remaining(), src.Remaining())
	}
	for i := 0; ; i++ {
		want, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		got, err := resumed.Next()
		if err != nil {
			t.Fatal(err)
		}
		if (want == nil) != (got == nil) {
			t.Fatalf("streams drained at different positions (job %d)", i)
		}
		if want == nil {
			break
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resumed job %d differs:\nresumed:  %+v\noriginal: %+v", i, got, want)
		}
	}
}

func TestSourceCursorJSONRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.CPUJobs, cfg.GPUJobs = 50, 20
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	cur := src.CheckpointState()
	data, err := json.Marshal(cur)
	if err != nil {
		t.Fatal(err)
	}
	var back Cursor
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cur) {
		t.Fatalf("cursor JSON round trip changed state:\nbefore: %+v\nafter:  %+v", cur, back)
	}
	resumed, err := Resume(back)
	if err != nil {
		t.Fatal(err)
	}
	want, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-round-trip job differs: %+v vs %+v", got, want)
	}
}

func TestResumeRejectsBadCursors(t *testing.T) {
	cfg := smallConfig()
	cfg.CPUJobs, cfg.GPUJobs = 30, 10
	fresh := func() Cursor {
		src, err := NewSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := src.Next(); err != nil {
				t.Fatal(err)
			}
		}
		return src.CheckpointState()
	}
	tests := []struct {
		name   string
		mutate func(*Cursor)
	}{
		{"bad config", func(c *Cursor) { c.Config.Duration = 0 }},
		{"negative gpu left", func(c *Cursor) { c.GPULeft = -1 }},
		{"gpu left over total", func(c *Cursor) { c.GPULeft = cfg.GPUJobs + 1 }},
		{"inconsistent next id", func(c *Cursor) { c.NextID += 3 }},
		{"draws below fresh", func(c *Cursor) { c.GPUDraws = 0 }},
		{"fraction out of range", func(c *Cursor) { c.CPUFrac = 1.5 }},
		{"arrival past duration", func(c *Cursor) { c.GPUNext = cfg.Duration + time.Hour }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cur := fresh()
			tt.mutate(&cur)
			if _, err := Resume(cur); err == nil {
				t.Error("Resume accepted a corrupt cursor")
			}
		})
	}
}

func TestNewSourceRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Duration = 0
	if _, err := NewSource(cfg); err == nil {
		t.Error("NewSource accepted a zero-duration config")
	}
}

func TestSummarizeSourceMatchesSlice(t *testing.T) {
	cfg := smallConfig()
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SummarizeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if want := Summarize(jobs); !reflect.DeepEqual(got, want) {
		t.Fatalf("SummarizeSource = %+v\nSummarize      = %+v", got, want)
	}
}

func TestHourlyArrivalsSourceMatchesSlice(t *testing.T) {
	cfg := smallConfig()
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := HourlyArrivalsSource(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := HourlyArrivals(jobs, cfg.Duration, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("hourly bins differ:\nsource: %v\nslice:  %v", got, want)
	}

	// And with a filter: GPU jobs only.
	gpuOnly := func(j *job.Job) bool { return j.IsGPU() }
	src2, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := HourlyArrivalsSource(src2, gpuOnly)
	if err != nil {
		t.Fatal(err)
	}
	if want2 := HourlyArrivals(jobs, cfg.Duration, gpuOnly); !reflect.DeepEqual(got2, want2) {
		t.Fatalf("filtered hourly bins differ:\nsource: %v\nslice:  %v", got2, want2)
	}
}

// TestFromJobsRejectsInvalidJob pins the refusal the engine's constructor
// used to give: the job's own validation error, wrapped.
func TestFromJobsRejectsInvalidJob(t *testing.T) {
	bad := &job.Job{ID: 1, Kind: job.KindCPU, Request: job.Request{CPUCores: 0, Nodes: 1}}
	_, err := FromJobs([]*job.Job{bad})
	if err == nil {
		t.Fatal("FromJobs accepted an invalid job")
	}
	if want := "trace: " + bad.Validate().Error(); err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// TestFromJobsReplayResume drains a replayed trace part way, round-trips
// its cursor through JSON and checks the resumed source yields the exact
// remainder: sorted by arrival, ties in slice order, IDs untouched, and
// the caller's slice left in its own order.
func TestFromJobsReplayResume(t *testing.T) {
	mk := func(id job.ID, at time.Duration) *job.Job {
		return &job.Job{ID: id, Kind: job.KindCPU, Request: job.Request{CPUCores: 2, Nodes: 1}, Arrival: at, Work: time.Hour}
	}
	jobs := []*job.Job{mk(40, 2*time.Hour), mk(7, time.Hour), mk(3, time.Hour), mk(12, 0), mk(5, time.Hour)}
	src, err := FromJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := []job.ID{jobs[0].ID, jobs[1].ID, jobs[4].ID}; !reflect.DeepEqual(got, []job.ID{40, 7, 5}) {
		t.Fatalf("FromJobs reordered the caller's slice: %v", got)
	}
	if src.Total() != 5 || src.Remaining() != 5 {
		t.Fatalf("Total/Remaining = %d/%d, want 5/5", src.Total(), src.Remaining())
	}
	next := func(s *Source) job.ID {
		t.Helper()
		j, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if j == nil {
			return 0
		}
		return j.ID
	}
	if a, b := next(src), next(src); a != 12 || b != 7 {
		t.Fatalf("first yields %d, %d; want 12, 7", a, b)
	}
	data, err := json.Marshal(src.CheckpointState())
	if err != nil {
		t.Fatal(err)
	}
	var cur Cursor
	if err := json.Unmarshal(data, &cur); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(cur)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Total() != 5 || resumed.Remaining() != 3 {
		t.Fatalf("resumed Total/Remaining = %d/%d, want 5/3", resumed.Total(), resumed.Remaining())
	}
	for _, want := range []job.ID{3, 5, 40, 0} {
		if a, b := next(src), next(resumed); a != want || b != want {
			t.Fatalf("original yields %d, resumed %d; want %d", a, b, want)
		}
	}
	cur.NextID++
	if _, err := Resume(cur); err == nil {
		t.Error("Resume accepted a replay cursor whose next ID disagrees with its jobs")
	}
}
