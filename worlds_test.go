package repro

import (
	"errors"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The module holds two worlds. The serving world is what seaserve and
// seatop run: the HTTP members, their column store, the SEA agent and
// the instruments around them. The reproduction world is the simulated,
// cost-accounted BDAS that re-runs the paper's experiments. Every
// package belongs to exactly one of them.
var (
	servingWorld = []string{
		"cmd/seaserve",
		"cmd/seatop",
		"internal/chaos",
		"internal/core",
		"internal/dist",
		"internal/explain",
		"internal/flight",
		"internal/ingest",
		"internal/metrics",
		"internal/ml",
		"internal/obs",
		"internal/query",
		"internal/serve",
		"internal/storage",
		"internal/trace",
		"internal/workload",
	}
	reproductionWorld = []string{
		"sea",
		"cmd/seabench",
		"cmd/seademo",
		"examples/distcluster",
		"examples/exploration",
		"examples/geodistributed",
		"examples/operators",
		"examples/quickstart",
		"internal/aqp",
		"internal/cluster",
		"internal/engine",
		"internal/exec",
		"internal/experiments",
		"internal/geo",
		"internal/graph",
		"internal/impute",
		"internal/index",
		"internal/knn",
		"internal/learn",
		"internal/optimizer",
		"internal/polystore",
		"internal/rankjoin",
		"internal/sketch",
	}
)

// modulePackages maps every package of the module (relative directory,
// slash-separated) to its in-module non-test imports, also relative.
// Directories holding another module (bench/) and directories without
// non-test Go files (the root) are not packages of this one.
func modulePackages(t *testing.T) map[string][]string {
	t.Helper()
	const module = "repro/"
	pkgs := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != "." {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		if len(pkg.GoFiles) == 0 {
			return nil
		}
		var imports []string
		for _, imp := range pkg.Imports {
			if strings.HasPrefix(imp, module) {
				imports = append(imports, strings.TrimPrefix(imp, module))
			}
		}
		pkgs[filepath.ToSlash(path)] = imports
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// reach returns every package the non-test imports of roots reach,
// roots included.
func reach(pkgs map[string][]string, roots []string) map[string]bool {
	seen := map[string]bool{}
	for len(roots) > 0 {
		p := roots[0]
		roots = roots[1:]
		if !seen[p] {
			seen[p] = true
			roots = append(roots, pkgs[p]...)
		}
	}
	return seen
}

// TestImportGraph keeps the wall between the two worlds: a serving
// package's non-test imports never reach a reproduction package, every
// package is in exactly one world, and every internal package is
// reached from a command or an example (code nothing runs is deleted,
// not kept). Test files may cross the wall: a serving package's test can
// use the simulator as an oracle.
func TestImportGraph(t *testing.T) {
	pkgs := modulePackages(t)
	if _, ok := pkgs["internal/dist"]; !ok {
		t.Fatalf("walk missed internal/dist; found %v", pkgs)
	}

	world := map[string]string{}
	for _, p := range servingWorld {
		world[p] = "serving"
	}
	for _, p := range reproductionWorld {
		if world[p] != "" {
			t.Errorf("%s is listed in both worlds", p)
		}
		world[p] = "reproduction"
	}
	var names []string
	for p := range pkgs {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		if world[p] == "" {
			t.Errorf("%s is in neither world: list it in servingWorld or reproductionWorld", p)
		}
	}
	for p := range world {
		if _, ok := pkgs[p]; !ok {
			t.Errorf("%s is listed but is not a package of the module", p)
		}
	}

	// An import from a serving package into the serving world keeps its
	// imports there too, so checking each edge checks every path.
	for _, p := range servingWorld {
		for _, imp := range pkgs[p] {
			if world[imp] != "serving" {
				t.Errorf("serving package %s imports %s package %s", p, world[imp], imp)
			}
		}
	}

	var roots []string
	for _, p := range names {
		if strings.HasPrefix(p, "cmd/") || strings.HasPrefix(p, "examples/") {
			roots = append(roots, p)
		}
	}
	reached := reach(pkgs, roots)
	for _, p := range names {
		if strings.HasPrefix(p, "internal/") && !reached[p] {
			t.Errorf("%s is reached from no command or example", p)
		}
	}
}
