// Package analysis is detlint: a static-analysis pass that turns the
// determinism contract of DESIGN.md into machine-checked rules. The
// simulator's golden outputs are trusted only because a run is
// bit-deterministic at any -parallel worker count; three past PRs each lost
// review time to nondeterminism found after the fact (map-order lock
// release, map-order waiter wakeup, stale sim clock). detlint rejects those
// bug classes at lint time, the way -race rejects data races at run time.
//
// The driver is built on the stdlib go/parser + go/types toolchain only, so
// the module stays dependency-free. Each rule is an independent Analyzer
// value; the shape deliberately mirrors golang.org/x/tools/go/analysis so
// rules can later be lifted onto that framework unchanged in spirit.
//
// Suppressions: a finding can be acknowledged in source with
//
//	//detlint:allow <rule> <reason>
//
// on the flagged line, on the line directly above it, or — before the
// package clause — for the whole file. maporder additionally honors the
// loop-specific form
//
//	//detlint:ordered <reason>
//
// A suppression without a reason is itself a diagnostic and does not
// suppress anything: every exception to the contract must say why.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the canonical file:line: rule: message form. File paths are
// kept as the loader produced them (module-root relative).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Pass carries everything one analyzer needs to inspect one package.
type Pass struct {
	Fset *token.FileSet
	Path string // import path, e.g. repro/internal/core
	// RelDir is the package directory relative to the module root, with
	// forward slashes ("internal/core"). File-scoped whitelists key on
	// RelDir + "/" + filename.
	RelDir string
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// RelFile returns pos's filename relative to the module root (slash form),
// for whitelist matching and stable diagnostics.
func (p *Pass) RelFile(pos token.Pos) string {
	return filepath.ToSlash(p.Fset.Position(pos).Filename)
}

// An Analyzer is one independent determinism rule.
type Analyzer struct {
	Name string
	// Doc is the one-paragraph rule statement shown by detlint -list.
	Doc string
	// Applies reports whether the rule is in force for a package path.
	// The driver's -scope=all flag overrides it (used by fixtures and the
	// seeded-violation self-test).
	Applies func(pkgPath string) bool
	Run     func(*Pass)
}

// simScope lists the package suffixes (under the module path) where the full
// contract is in force: everything that executes inside, or renders output
// of, the simulation. internal/rng is the one sanctioned randomness source
// and internal/analysis is the linter itself; neither simulates anything.
var simScope = []string{
	"internal/sim", "internal/core", "internal/buffer", "internal/cc",
	"internal/storage", "internal/workload", "internal/recovery",
	"internal/experiments",
	// Reporting/aggregation paths: these render the golden bytes, so
	// map-order and float-order rules matter just as much here.
	"internal/trace", "internal/stats", "internal/costmodel", "internal/lru",
	"internal/hashtab",
}

// inSimScope reports whether pkgPath is one of the simulation packages.
func inSimScope(pkgPath string) bool {
	for _, s := range simScope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// moduleWide applies a rule to every package except the named suffixes.
func moduleWide(except ...string) func(string) bool {
	return func(pkgPath string) bool {
		for _, e := range except {
			if pkgPath == e || strings.HasSuffix(pkgPath, "/"+e) {
				return false
			}
		}
		return true
	}
}

// All returns the analyzers in their fixed reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer,
		RngstreamAnalyzer,
		MaporderAnalyzer,
		RawgoAnalyzer,
		FloatsumAnalyzer,
	}
}

// RuleNames returns the set of valid rule names (for directive validation).
func RuleNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// RunAnalyzers executes the given analyzers over one loaded package,
// applies the package's suppression directives, and returns the surviving
// diagnostics sorted by position. When force is true the per-analyzer
// Applies scope check is skipped.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, force bool) []Diagnostic {
	pass := &Pass{
		Fset:   pkg.Fset,
		Path:   pkg.Path,
		RelDir: pkg.RelDir,
		Files:  pkg.Files,
		Pkg:    pkg.Types,
		Info:   pkg.Info,
	}
	for _, a := range analyzers {
		if !force && a.Applies != nil && !a.Applies(pkg.Path) {
			continue
		}
		a.Run(pass)
	}
	sup := collectSuppressions(pkg.Fset, pkg.Files, RuleNames())
	diags := sup.filter(pass.diags)
	diags = append(diags, sup.malformed...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

// pkgPathOf resolves the package path of the object an identifier uses, or
// "" when it is not a package-level import reference.
func pkgPathOf(info *types.Info, id *ast.Ident) string {
	obj := info.Uses[id]
	pn, ok := obj.(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// selectorCallee matches n as pkg.Name and returns the imported package
// path and selected identifier, or "" when n is not such a selector.
func selectorCallee(info *types.Info, n ast.Node) (pkgPath string, sel *ast.Ident) {
	s, ok := n.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	id, ok := s.X.(*ast.Ident)
	if !ok {
		return "", nil
	}
	return pkgPathOf(info, id), s.Sel
}
