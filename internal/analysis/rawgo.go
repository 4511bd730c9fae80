package analysis

import (
	"go/ast"
	"strings"
)

// rawgoSeams are the files allowed to spawn goroutines or multiplex with
// multi-case select: the sanctioned concurrency seams, each of which is
// proven worker-count-invariant by its own determinism tests. Paths are
// module-root relative.
//
// A seam can also opt in locally with a file-scoped
// `//detlint:allow rawgo <reason>` before its package clause (see
// internal/core/barrier.go, the PDES worker pool): that keeps the
// reasoning next to the code it excuses instead of in this list. The
// PDES coordinator (internal/core/pdes.go) itself no longer spawns
// goroutines — all raw concurrency moved behind the barrier seam.
var rawgoSeams = []string{
	"internal/experiments/parallel.go", // replication/grid worker pool
}

// RawgoAnalyzer confines raw concurrency to the whitelisted seams.
//
// The sim kernel executes continuations on one stack in timestamp order;
// determinism holds because nothing else runs. A `go` statement or a
// multi-case `select` anywhere else in simulation code reintroduces
// scheduler ordering into the model — the class of bug the PR-2 kernel
// rewrite removed. Single-case select (a plain blocking op) stays legal.
var RawgoAnalyzer = &Analyzer{
	Name: "rawgo",
	Doc: "go statements and multi-case select are confined to whitelisted " +
		"concurrency seams; sim code is single-threaded continuation style",
	Applies: inSimScope,
	Run:     runRawgo,
}

func runRawgo(pass *Pass) {
	for _, f := range pass.Files {
		file := pass.RelFile(f.Pos())
		if rawgoSeam(file) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(st.Pos(), "rawgo",
					"go statement outside the whitelisted concurrency seams (%s)",
					strings.Join(rawgoSeams, ", "))
			case *ast.SelectStmt:
				if len(st.Body.List) > 1 {
					pass.Reportf(st.Pos(), "rawgo",
						"multi-case select outside the whitelisted concurrency seams (%s)",
						strings.Join(rawgoSeams, ", "))
				}
			}
			return true
		})
	}
}

// rawgoSeam reports whether file (module-relative, slash form) is a
// sanctioned concurrency seam.
func rawgoSeam(file string) bool {
	for _, s := range rawgoSeams {
		if file == s || strings.HasSuffix(file, "/"+s) {
			return true
		}
	}
	return false
}
