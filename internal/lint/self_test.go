package lint

import "testing"

// loadRepo loads and type-checks the repository's own internal/ and cmd/
// trees, as coda-vet does.
func loadRepo(t *testing.T) *Module {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root, []string{"internal", "cmd"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRepositoryIsLintClean is the self-enforcing pass: the per-file rules
// run over the repository's own internal/ and cmd/ trees with the
// production config, and any finding fails the build. New code either
// satisfies the determinism invariants or carries a reviewed
// //coda:ordered-ok reason.
func TestRepositoryIsLintClean(t *testing.T) {
	findings := Run(loadRepo(t), DefaultConfig())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("fix the sites above or annotate them with %s <reason> (see DESIGN.md)", AnnotationPrefix)
	}
}
