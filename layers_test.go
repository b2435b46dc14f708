package pingmesh

import (
	"go/build"
	"slices"
	"strings"
	"testing"
)

// simulationOnly are the packages no deployment binary may link: the
// network simulator, the simulated fleet, the paper's experiments and this
// facade, which wires them together.
var simulationOnly = []string{
	"pingmesh/internal/netsim",
	"pingmesh/internal/fleet",
	"pingmesh/internal/experiments",
	"pingmesh",
}

// TestPackageLayers keeps the simulator out of what a deployment runs. It
// follows the non-test imports of each deployment binary through the
// module (go/build drops _test.go files and honours build tags) and fails
// on any path to a simulation-only package, printing the import chain.
func TestPackageLayers(t *testing.T) {
	for _, bin := range []string{"cmd/pingmesh-agent", "cmd/pingmesh-controller", "cmd/pingmesh-dsa"} {
		root := "pingmesh/" + bin
		via := map[string]string{root: ""} // package → the importer that first reached it
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			path := queue[0]
			if slices.Contains(simulationOnly, path) {
				chain := []string{path}
				for p := via[path]; p != ""; p = via[p] {
					chain = append(chain, p)
				}
				slices.Reverse(chain)
				t.Errorf("%s links simulation-only %s: %s", bin, path, strings.Join(chain, " -> "))
				continue
			}
			pkg, err := build.ImportDir("."+strings.TrimPrefix(path, "pingmesh"), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range pkg.Imports {
				if _, seen := via[imp]; !seen && (imp == "pingmesh" || strings.HasPrefix(imp, "pingmesh/")) {
					via[imp] = path
					queue = append(queue, imp)
				}
			}
		}
	}
}
