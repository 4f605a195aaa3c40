package main

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestServingStackImports pins seaserve to the serving world: nothing it
// imports, directly or not, reaches the paper's simulated reproduction
// stack (the sea facade, the operator engine, the cost-model executor,
// the sketches). internal/cluster is still reached, through
// storage.Table; moving the columnar store out of internal/storage so
// that it is not is the next step of the one-serving-stack item in
// ROADMAP.md, and that step adds it here.
func TestServingStackImports(t *testing.T) {
	const module = "repro/"
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	banned := []string{"repro/sea", "repro/internal/engine", "repro/internal/exec", "repro/internal/sketch"}
	seen := map[string]bool{}
	queue := []string{"repro/cmd/seaserve"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if seen[path] {
			continue
		}
		seen[path] = true
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if strings.HasPrefix(imp, module) {
				queue = append(queue, imp)
			}
		}
	}
	if !seen["repro/internal/dist"] {
		t.Fatalf("walk missed repro/internal/dist; saw %v", seen)
	}
	for _, b := range banned {
		if seen[b] {
			t.Errorf("seaserve imports %s", b)
		}
	}
}
