package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runVet invokes the command body and captures its streams.
func runVet(t *testing.T, args []string, dir string, jsonOut bool) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, dir, jsonOut, &out, &errw)
	return code, out.String(), errw.String()
}

// writeTree materializes path->content files under root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for path, content := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExitZeroOnCleanTree: analyzing this repository itself must be clean —
// both rule sets are self-enforced — and a clean run exits 0 with no
// findings printed, or with exactly [] under -json.
func TestExitZeroOnCleanTree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		jsonOut bool
		want    string
	}{
		{"text", false, ""},
		{"json", true, "[]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runVet(t, []string{"./..."}, ".", tc.jsonOut)
			if code != 0 {
				t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if strings.TrimSpace(stdout) != tc.want {
				t.Errorf("clean run printed %q, want %q", stdout, tc.want)
			}
		})
	}
}

// dirtyModule is a minimal module violating the default layer spec: a
// package named internal/sim (the engine layer) importing os, which the
// engine deny-list forbids, and reading the wall clock through a helper it
// is allowed to import — so both the layering and the purity pass fire.
var dirtyModule = map[string]string{
	"go.mod": "module example.com/tmpvet\n\ngo 1.21\n",
	"internal/sim/sim.go": `package sim

import (
	"os"
	"time"
)

// Run leaks the host into the engine twice over.
func Run() int { return len(os.Args) + tick() }

func tick() int { return int(time.Now().UnixNano()) }
`,
	"internal/job/job.go": `package job

// N keeps the base layer non-empty.
func N() int { return 1 }
`,
}

// perFileDirtyModule breaks only per-file rules: a decision-path package
// leaking map order and comparing floats exactly, with no imports, so the
// whole-program passes stay silent; internal/job is its clean subtree.
var perFileDirtyModule = map[string]string{
	"go.mod": "module example.com/tmpvet\n\ngo 1.21\n",
	"internal/job/job.go": `package job

// N keeps the base layer non-empty.
func N() int { return 1 }
`,
	"internal/fair/fair.go": `package fair

// Keys leaks map iteration order into a slice.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// Eq compares floats for exact equality.
func Eq(a, b float64) bool { return a == b }
`,
}

// cleanModule passes every rule.
var cleanModule = map[string]string{
	"go.mod": "module example.com/tmpvet\n\ngo 1.21\n",
	"internal/job/job.go": `package job

// Add is trivially clean.
func Add(a, b int) int { return a + b }
`,
}

// TestExitOneOnFindings: a module with per-file or whole-program violations
// exits 1 and reports them as file:line: rule: message; the purity finding
// embeds the witness chain.
func TestExitOneOnFindings(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{"whole-program", dirtyModule, []string{"import-layering", "transitive-purity", "reached via"}},
		{"per-file", perFileDirtyModule, []string{
			"internal/fair/fair.go:6: ordered-map-iteration", "internal/fair/fair.go:13: float-eq",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			writeTree(t, tmp, tc.files)
			code, stdout, stderr := runVet(t, nil, tmp, false)
			if code != 1 {
				t.Fatalf("exit = %d, want 1; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			for _, w := range tc.want {
				if !strings.Contains(stdout, w) {
					t.Errorf("missing %q in findings:\n%s", w, stdout)
				}
			}
			if !strings.Contains(stderr, "finding(s)") {
				t.Errorf("stderr missing summary: %q", stderr)
			}
		})
	}
}

// TestJSONOutput: -json renders a parseable array with module-relative paths
// and the purity chain serialized, with stdout kept pure JSON (the human
// summary stays on stderr); a clean module serializes as [] with exit 0.
func TestJSONOutput(t *testing.T) {
	type jsonFinding struct {
		File  string   `json:"file"`
		Line  int      `json:"line"`
		Rule  string   `json:"rule"`
		Chain []string `json:"chain"`
	}
	for _, tc := range []struct {
		name     string
		files    map[string]string
		wantCode int
		check    func(t *testing.T, got []jsonFinding)
	}{
		{"per-file", perFileDirtyModule, 1, func(t *testing.T, got []jsonFinding) {
			rules := map[string]bool{}
			for _, f := range got {
				if f.File != "internal/fair/fair.go" {
					t.Errorf("path not module-relative: %q", f.File)
				}
				rules[f.Rule] = true
			}
			if len(got) != 2 || !rules["ordered-map-iteration"] || !rules["float-eq"] {
				t.Errorf("unexpected JSON findings: %+v", got)
			}
		}},
		{"dirty", dirtyModule, 1, func(t *testing.T, got []jsonFinding) {
			var sawChain bool
			for _, f := range got {
				if f.File != "internal/sim/sim.go" {
					t.Errorf("path not module-relative: %q", f.File)
				}
				if f.Rule == "transitive-purity" && len(f.Chain) > 0 {
					sawChain = true
				}
			}
			if !sawChain {
				t.Error("no purity finding carried a witness chain in JSON")
			}
		}},
		{"clean", cleanModule, 0, func(t *testing.T, got []jsonFinding) {
			if got == nil || len(got) != 0 {
				t.Errorf("clean run must print [], got %+v", got)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			writeTree(t, tmp, tc.files)
			code, stdout, stderr := runVet(t, nil, tmp, true)
			if code != tc.wantCode {
				t.Fatalf("exit = %d, want %d; stderr:\n%s", code, tc.wantCode, stderr)
			}
			var got []jsonFinding
			if err := json.Unmarshal([]byte(stdout), &got); err != nil {
				t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout)
			}
			tc.check(t, got)
		})
	}
}

// TestArgumentFilterScopesFindings: naming a clean subtree hides the dirty
// one's findings, for either rule set; a pattern naming a directory that does
// not exist is an operational error (exit 2), never a silently clean run.
func TestArgumentFilterScopesFindings(t *testing.T) {
	type scoped struct {
		args     []string
		wantCode int
	}
	for _, tc := range []struct {
		name  string
		files map[string]string
		runs  []scoped
	}{
		{"whole-program", dirtyModule, []scoped{
			{[]string{"./internal/job"}, 0},
			{[]string{"./internal/sim/..."}, 1},
		}},
		{"per-file", perFileDirtyModule, []scoped{
			{[]string{"./internal/job"}, 0},
			{[]string{"./internal/fair/..."}, 1},
		}},
		{"bad-path", dirtyModule, []scoped{
			{[]string{"./no-such-dir"}, 2},
			{[]string{"./no-such-dir/..."}, 2},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			writeTree(t, tmp, tc.files)
			for _, r := range tc.runs {
				code, stdout, stderr := runVet(t, r.args, tmp, false)
				if code != r.wantCode {
					t.Errorf("%v: exit = %d, want %d; stdout:\n%s\nstderr:\n%s", r.args, code, r.wantCode, stdout, stderr)
				}
				if r.wantCode == 2 && !strings.Contains(stderr, "not a directory") {
					t.Errorf("%v: stderr missing diagnosis: %q", r.args, stderr)
				}
			}
		})
	}
}

// TestExitTwoOutsideModule: running outside any Go module is an operational
// error in either output mode.
func TestExitTwoOutsideModule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		jsonOut bool
	}{
		{"text", false},
		{"json", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runVet(t, nil, t.TempDir(), tc.jsonOut)
			if code != 2 {
				t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
			}
		})
	}
}
